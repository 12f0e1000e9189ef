#ifndef R3DB_COMMON_SIM_CLOCK_H_
#define R3DB_COMMON_SIM_CLOCK_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cost_model.h"

namespace r3 {

class Tracer;
class WaitEventLog;

/// Deterministic virtual clock.
///
/// All layers charge their simulated costs here. One SimClock instance is
/// shared by a Database and the AppServer running on top of it, so simulated
/// times compose across the tiers exactly like wall-clock time would.
///
/// Parallel execution uses per-worker *lanes*: a worker thread enters a lane
/// (EnterLane), after which every Charge() made on that thread accumulates
/// into the lane instead of the shared clock. At the gather barrier the
/// coordinator merges the lanes as max(lane elapsed) — critical-path
/// accounting, so simulated time models parallel speedup deterministically
/// regardless of how the OS actually scheduled the workers.
class SimClock {
 public:
  /// Per-worker charge accumulator. Each lane also carries its own
  /// sequential-read detection state (file -> last page read), so a worker's
  /// read stream is classified independently of interleaving with other
  /// workers' reads.
  struct Lane {
    int64_t elapsed_us = 0;
    std::unordered_map<uint32_t, uint32_t> last_read_page;

    void Reset() {
      elapsed_us = 0;
      last_read_page.clear();
    }
  };

  explicit SimClock(const CostModel& model = DefaultCostModel())
      : model_(model) {}

  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  /// Adds `us` microseconds of simulated elapsed time — to the calling
  /// thread's active lane if one is set, else to the shared clock.
  void Charge(int64_t us) {
    if (Lane* lane = tl_active_lane_) {
      lane->elapsed_us += us;
    } else {
      now_us_ += us;
    }
  }

  void ChargeSeqPageRead() { Charge(model_.seq_page_read_us); }
  void ChargeRandomPageRead() { Charge(model_.random_page_read_us); }
  void ChargePageWrite() { Charge(model_.page_write_us); }
  void ChargeDbmsTuple(int64_t n = 1) { Charge(n * model_.dbms_tuple_cpu_us); }
  void ChargeRoundTrip() { Charge(model_.rpc_round_trip_us); }
  void ChargeTupleShip(int64_t n = 1) { Charge(n * model_.tuple_ship_us); }
  void ChargeAbapTuple(int64_t n = 1) { Charge(n * model_.abap_tuple_cpu_us); }
  void ChargeStatementCompile() { Charge(model_.statement_compile_us); }
  void ChargeColumnarValue(int64_t n = 1) {
    Charge(n * model_.columnar_value_cpu_us);
  }
  void ChargeBufferProbe() { Charge(model_.app_buffer_probe_us); }
  void ChargeBatchInputStep() { Charge(model_.batch_input_step_us); }

  /// Routes subsequent Charge() calls on the *calling thread* into `lane`.
  static void EnterLane(Lane* lane) { tl_active_lane_ = lane; }
  static void ExitLane() { tl_active_lane_ = nullptr; }
  static Lane* active_lane() { return tl_active_lane_; }

  /// Advances the shared clock by the slowest lane (the critical path of a
  /// parallel region). Must be called with no lane active on this thread.
  void MergeLanes(const std::vector<Lane>& lanes) {
    int64_t critical_path_us = 0;
    for (const Lane& lane : lanes) {
      if (lane.elapsed_us > critical_path_us) {
        critical_path_us = lane.elapsed_us;
      }
    }
    now_us_ += critical_path_us;
  }

  /// Current simulated time in microseconds since construction/reset.
  int64_t NowMicros() const { return now_us_; }

  void Reset() { now_us_ = 0; }

  const CostModel& model() const { return model_; }

  /// The clock doubles as the cross-layer rendezvous point for tracing:
  /// every instrumented component already holds a SimClock*, so attaching a
  /// Tracer here (done by the Tracer's constructor) lights up spans in all
  /// of them at once. Null — the default — means tracing is off and each
  /// instrumentation site costs one pointer test.
  Tracer* tracer() const { return tracer_; }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Same rendezvous pattern for the wait-event log (common/wait_event.h):
  /// attached by the WaitEventLog's constructor, null means wait recording
  /// is off and each site pays one pointer test.
  WaitEventLog* wait_log() const { return wait_log_; }
  void set_wait_log(WaitEventLog* log) { wait_log_ = log; }

 private:
  const CostModel model_;
  int64_t now_us_ = 0;
  Tracer* tracer_ = nullptr;
  WaitEventLog* wait_log_ = nullptr;
  static constinit inline thread_local Lane* tl_active_lane_ = nullptr;
};

/// RAII lane scope for worker threads.
class LaneScope {
 public:
  explicit LaneScope(SimClock::Lane* lane) { SimClock::EnterLane(lane); }
  ~LaneScope() { SimClock::ExitLane(); }

  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;
};

/// Measures a span of simulated time: `SimTimer t(clock); ...; t.ElapsedUs()`.
class SimTimer {
 public:
  explicit SimTimer(const SimClock& clock)
      : clock_(clock), start_us_(clock.NowMicros()) {}

  int64_t ElapsedUs() const { return clock_.NowMicros() - start_us_; }

 private:
  const SimClock& clock_;
  int64_t start_us_;
};

/// Formats microseconds in the paper's style: "25d 19h 55m", "2h 14m 56s",
/// "5m 17s", "34s", or "<1s".
std::string FormatDuration(int64_t us);

}  // namespace r3

#endif  // R3DB_COMMON_SIM_CLOCK_H_
