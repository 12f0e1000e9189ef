// Self-test of the benchmark's own machinery: self-time reduction on
// hand-built spans and on a real trace export, tail percentiles, and the
// answer check tripping on a corrupted reference. Exits non-zero on the
// first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "tpcd/dbgen.h"
#include "tpcd/loader.h"
#include "tpcd/queries.h"
#include "tpcd/schema.h"
#include "wallbench/harness.h"
#include "wallbench/trace_reduce.h"
#include "wallbench/workloads.h"

namespace r3 {
namespace wallbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    ++failures;
  }
}

void ExpectEq(int64_t got, int64_t want, const std::string& what) {
  Expect(got == want, what + ": got " + std::to_string(got) + ", want " +
                          std::to_string(want));
}

int64_t At(const std::map<std::string, int64_t>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

void TestNestedSelfTimes() {
  // Recorded in end order: children before their parents.
  std::vector<Span> spans = {
      {"b", 10, 20},   // [10,30) child of a
      {"d", 45, 5},    // [45,50) child of c
      {"c", 40, 20},   // [40,60) child of a
      {"z", 70, 0},    // zero length: no time
      {"a", 0, 100},   // [0,100)
  };
  auto self = SelfTimes(spans);
  ExpectEq(At(self, "a"), 60, "parent keeps what its children do not cover");
  ExpectEq(At(self, "b"), 20, "leaf child");
  ExpectEq(At(self, "c"), 15, "middle span minus its grandchild");
  ExpectEq(At(self, "d"), 5, "grandchild");
  ExpectEq(At(self, "z"), 0, "zero-length span");
}

void TestTiesAndCrossing() {
  // Same interval: the span recorded first ended first, so it is inner.
  auto tie = SelfTimes({{"inner", 0, 50}, {"outer", 0, 50}});
  ExpectEq(At(tie, "inner"), 50, "tie goes to the first-recorded span");
  ExpectEq(At(tie, "outer"), 0, "tie leaves the outer span nothing");
  // Crossing intervals: each instant goes to the later-starting span.
  auto cross = SelfTimes({{"x", 0, 50}, {"y", 25, 50}});
  ExpectEq(At(cross, "x"), 25, "crossing: earlier span up to the overlap");
  ExpectEq(At(cross, "y"), 50, "crossing: later span from its start");
  // Same layer twice accumulates.
  auto twice = SelfTimes({{"q", 0, 10}, {"q", 20, 10}});
  ExpectEq(At(twice, "q"), 20, "layer totals add up");
}

void TestRealTrace() {
  SimClock clock;
  Tracer tracer(&clock);
  TraceReducer reducer(&tracer);
  {
    TraceSpan op(&clock, "tpcd", "rdbms.Q1");
    clock.Charge(7);
    {
      TraceSpan exec(&clock, "sql", "execute");
      clock.Charge(30);
      int64_t start = clock.NowMicros();
      clock.Charge(40);
      tracer.Complete("io", "page_read.rand", start, 40);
      tracer.Instant("app", "table_buffer.hit");
    }
    TraceSpan opt(&clock, "sql", "optimize");
    clock.Charge(3);
  }
  Expect(reducer.Flush().ok(), "flush parses the export");
  Expect(tracer.event_count() == 0, "flush clears the tracer");
  Expect(reducer.CheckNoDrops().ok(), "no events dropped");
  ExpectEq(reducer.events(), 5, "every recorded event is counted");
  const auto& sim = reducer.self_sim_us();
  ExpectEq(At(sim, "tpcd"), 7, "benchmark span self time");
  ExpectEq(At(sim, "exec"), 30, "sql/execute reduces to exec");
  ExpectEq(At(sim, "io"), 40, "io inside execute");
  ExpectEq(At(sim, "optimizer"), 3, "sql/optimize reduces to optimizer");

  std::vector<Span> s, w;
  Expect(!ParseChromeTrace("{\"nope\":1}", &s, &w).ok(),
         "a document without traceEvents is rejected");
  Expect(ParseChromeTrace("{\"traceEvents\":[{\"name\":\"a\\\"b\",\"cat\":"
                          "\"sql\",\"ph\":\"X\",\"ts\":5,\"dur\":2,\"args\":"
                          "{\"wall_us\":9,\"wall_dur_us\":3,\"k\":\"v\"}}]}",
                          &s, &w)
             .ok(),
         "escaped names and extra args parse");
  Expect(s.size() == 1 && s[0].start == 5 && s[0].dur == 2 && w[0].start == 9 &&
             w[0].dur == 3,
         "sim and wall intervals of a parsed span");
}

void TestTail() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Tail t = TailLatency(v);
  Expect(t.value == 90 && t.beyond == 10 && t.samples == 100 &&
             t.percentile == 90.0,
         "tail of 1..100 is p90 = 90 with 10 samples beyond");
  std::vector<double> many;
  for (int i = 1; i <= 2000; ++i) many.push_back(i);
  Tail capped = TailLatency(many);
  Expect(capped.value == 1980 && capped.beyond == 20 && capped.percentile == 99.0,
         "a large sample's tail is capped at p99");
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 2, 3}) == 2.5, "median");
  OpLog log;
  log.Record("a", 2);
  log.Record("b", 8);
  log.Record("b", 8);
  Expect(std::abs(log.GeoMeanOfKindMedians() - 4.0) < 1e-9,
         "geomean of kind medians");
}

void TestCorruptedReferenceTrips() {
  tpcd::DbGen gen(0.002, 3);
  rdbms::Database db;
  Expect(tpcd::CreateTpcdSchema(&db).ok(), "schema");
  Expect(tpcd::LoadTpcdDatabase(&db, &gen).ok(), "load");
  auto queries = tpcd::MakeRdbmsQuerySet(&db);
  tpcd::QueryParams params = tpcd::QueryParams::Defaults(0.002);
  AnswerMap answers;
  for (int q : {1, 6, 14}) {
    auto res = queries->RunQuery(q, params);
    Expect(res.ok(), "query runs");
    if (res.ok()) answers[{0, q}] = std::move(res).value();
  }
  AnswerMap reference = answers;
  Expect(CompareAnswers("same", reference, answers).empty(),
         "identical answers pass");
  CorruptAnswers(&reference);
  Expect(!CompareAnswers("corrupted", reference, answers).empty(),
         "a corrupted reference trips the check");
  Expect(CompareAnswers("missing", AnswerMap(), answers).size() == 3,
         "answers without a reference are mismatches");
}

}  // namespace
}  // namespace wallbench
}  // namespace r3

int main() {
  using namespace r3::wallbench;
  TestNestedSelfTimes();
  TestTiesAndCrossing();
  TestRealTrace();
  TestTail();
  TestCorruptedReferenceTrips();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("wallbench selftest: all passed\n");
  return 0;
}
