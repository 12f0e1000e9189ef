#ifndef R3DB_WALLBENCH_TRACE_REDUCE_H_
#define R3DB_WALLBENCH_TRACE_REDUCE_H_

// Reduction of a Tracer's spans to self time per layer, on both clocks.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace r3 {
namespace wallbench {

/// One closed span on one clock, in the order the tracer recorded it (a span
/// is recorded when it ends, so a child precedes its parent).
struct Span {
  std::string layer;
  int64_t start = 0;
  int64_t dur = 0;
};

/// Self time per layer. Every instant covered by a span is credited to the
/// innermost span covering it: the one that started last, and among spans
/// that started together the one recorded first. For properly nested spans
/// this is the span's duration minus the part its children cover.
std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans);

/// The layer a program span belongs to. The program records its executor
/// work inside "sql/execute" and its planning inside "sql/optimize", so
/// those two names become the layers "exec" and "optimizer"; every other
/// span reduces to its category.
std::string LayerOf(const std::string& category, const std::string& name);

/// Parses a Tracer::ExportChromeJson() document into its complete spans on
/// the simulated clock (ts/dur) and on the wall clock (args wall_us and
/// wall_dur_us). Instant events are skipped.
Status ParseChromeTrace(const std::string& doc, std::vector<Span>* sim,
                        std::vector<Span>* wall);

/// Accumulates self time per layer over a traced window. Flush() reduces
/// the tracer's buffered events and clears it; call it only between
/// operations, when no span is open.
class TraceReducer {
 public:
  /// With a non-empty `first_chunk_path`, the first batch of events is also
  /// written there as a Chrome trace (open it in Perfetto).
  explicit TraceReducer(Tracer* tracer, std::string first_chunk_path = "")
      : tracer_(tracer), first_chunk_path_(std::move(first_chunk_path)) {}

  /// Flushes once more than `max_buffered` events are waiting.
  Status MaybeFlush(size_t max_buffered);
  Status Flush();

  /// Fails when the tracer discarded events since the window began.
  Status CheckNoDrops() const;

  const std::map<std::string, int64_t>& self_sim_us() const { return sim_; }
  const std::map<std::string, int64_t>& self_wall_us() const { return wall_; }
  int64_t events() const { return events_; }

 private:
  Tracer* tracer_;
  std::string first_chunk_path_;
  std::map<std::string, int64_t> sim_;
  std::map<std::string, int64_t> wall_;
  int64_t events_ = 0;
  size_t dropped_ = 0;
};

}  // namespace wallbench
}  // namespace r3

#endif  // R3DB_WALLBENCH_TRACE_REDUCE_H_
