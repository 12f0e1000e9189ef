#ifndef R3DB_WALLBENCH_HARNESS_H_
#define R3DB_WALLBENCH_HARNESS_H_

// Timing and accounting shared by the workloads: per-op wall latencies,
// their summary statistics, and the context a unit of work runs in.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "wallbench/trace_reduce.h"

namespace r3 {
namespace wallbench {

inline double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median (mean of the middle two for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// A tail latency, with the percentile it sits at and the sample counts.
struct Tail {
  double value = 0;
  double percentile = 0;
  int64_t beyond = 0;
  int64_t samples = 0;
};

/// p99 when at least `beyond` samples lie above it, else the highest
/// percentile that still has `beyond` samples above it. The cap at p99 keeps
/// the tail of a run with tens of thousands of ops from being set by its ten
/// slowest, which on a shared host are scheduling spikes.
inline Tail TailLatency(std::vector<double> v, int64_t beyond = 10) {
  Tail t;
  t.samples = static_cast<int64_t>(v.size());
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  int64_t n = t.samples;
  int64_t idx = std::max<int64_t>(0, n - 1 - beyond);
  idx = std::min(idx, (n * 99 + 99) / 100 - 1);
  t.value = v[static_cast<size_t>(idx)];
  t.beyond = n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

/// Wall latencies of the timed operations, by kind ("rdbms.Q3", "VA01", ...)
/// and in execution order, plus failure accounting.
class OpLog {
 public:
  void Record(const std::string& kind, double ms) {
    all_ms_.push_back(ms);
    by_kind_[kind].push_back(ms);
  }
  void Fail(int64_t n = 1) { failed_ += n; }

  int64_t attempted() const { return static_cast<int64_t>(all_ms_.size()); }
  int64_t failed() const { return std::min(failed_, attempted()); }
  const std::vector<double>& all_ms() const { return all_ms_; }
  const std::map<std::string, std::vector<double>>& by_kind() const {
    return by_kind_;
  }

  /// Every sample of the kinds whose name starts with `prefix`.
  std::vector<double> WithPrefix(const std::string& prefix) const {
    std::vector<double> out;
    for (const auto& [kind, ms] : by_kind_) {
      if (kind.compare(0, prefix.size(), prefix) == 0) {
        out.insert(out.end(), ms.begin(), ms.end());
      }
    }
    return out;
  }

  /// Geometric mean over kinds of each kind's median latency — TPC-D's
  /// power shape, so a short item is not drowned by a long one.
  double GeoMeanOfKindMedians() const {
    if (by_kind_.empty()) return 0;
    double log_sum = 0;
    for (const auto& [kind, ms] : by_kind_) {
      log_sum += std::log(std::max(Median(ms), 1e-6));
    }
    return std::exp(log_sum / static_cast<double>(by_kind_.size()));
  }

 private:
  std::vector<double> all_ms_;
  std::map<std::string, std::vector<double>> by_kind_;
  int64_t failed_ = 0;
};

/// Deltas of the system's counters over a traced window, leaving out what
/// the benchmark's own answer checks read and write.
class CounterWindow {
 public:
  explicit CounterWindow(const MetricsRegistry* m) : m_(m) {
    for (const char* name : kNames) start_[name] = m->Value(name);
  }

  double Delta(const std::string& name) const {
    return static_cast<double>(m_->Value(name) - start_.at(name));
  }

  /// Brackets a check: its counts are moved out of the window.
  void Pause() {
    for (const char* name : kNames) paused_[name] = m_->Value(name);
  }
  void Resume() {
    for (const char* name : kNames) {
      start_[name] += m_->Value(name) - paused_[name];
    }
  }

 private:
  static constexpr const char* kNames[] = {
      "appsys.connection.round_trips",
      "appsys.connection.rows_shipped",
      "appsys.connection.cursor_cache_hits",
      "appsys.connection.cursor_cache_misses",
      "appsys.table_buffer.probes",
      "appsys.table_buffer.hits",
      "rdbms.sql.statements",
      "rdbms.sql.hard_parses",
      "rdbms.optimizer.plans",
      "rdbms.optimizer.seq_scans",
      "rdbms.optimizer.index_scans",
      "rdbms.bufferpool.logical_reads",
      "rdbms.bufferpool.physical_reads",
      "rdbms.bufferpool.page_writes",
      "rdbms.txn.commits",
      "rdbms.txn.rollbacks",
      "rdbms.wal.flushes",
      "rdbms.wal.flushed_bytes",
  };
  const MetricsRegistry* m_;
  std::map<std::string, int64_t> start_;
  std::map<std::string, int64_t> paused_;
};

/// What a unit of work runs in: where its ops are logged, the tracer and
/// counters of a traced run, and the wall time spent on answer checks and
/// trace reduction (both kept out of the measured window).
struct Ctx {
  OpLog* log = nullptr;
  Tracer* tracer = nullptr;
  TraceReducer* reducer = nullptr;
  CounterWindow* counters = nullptr;
  double overhead_s = 0;
  std::vector<std::string>* problems = nullptr;

  /// Buffered trace events that trigger a reduction between ops.
  static constexpr size_t kFlushEvents = 1u << 18;

  /// Times one op: a call into layer `layer` (a string literal, used as the
  /// trace category of the benchmark's span around the call).
  template <typename Body>
  Status Op(const char* layer, const std::string& kind, Body&& body) {
    double start = WallSeconds();
    Status st;
    {
      TraceSpan span(tracer, layer, kind);
      st = body();
    }
    log->Record(kind, (WallSeconds() - start) * 1e3);
    if (!st.ok()) {
      log->Fail();
      Problem(kind + ": " + st.ToString());
    }
    if (reducer != nullptr) {
      double t = WallSeconds();
      Status flushed = reducer->MaybeFlush(kFlushEvents);
      overhead_s += WallSeconds() - t;
      R3_RETURN_IF_ERROR(flushed);
    }
    return st;
  }

  /// Runs a correctness check outside the measured window, untraced and
  /// uncounted.
  template <typename Body>
  auto Check(Body&& body) {
    double start = WallSeconds();
    if (tracer != nullptr) tracer->set_enabled(false);
    if (counters != nullptr) counters->Pause();
    auto result = body();
    if (counters != nullptr) counters->Resume();
    if (tracer != nullptr) tracer->set_enabled(true);
    overhead_s += WallSeconds() - start;
    return result;
  }

  /// Records a wrong answer or failed check as one failed op.
  void Mismatch(const std::string& what) {
    log->Fail();
    Problem(what);
  }

  void Problem(const std::string& what) {
    if (problems != nullptr && problems->size() < 50) problems->push_back(what);
  }
};

}  // namespace wallbench
}  // namespace r3

#endif  // R3DB_WALLBENCH_HARNESS_H_
