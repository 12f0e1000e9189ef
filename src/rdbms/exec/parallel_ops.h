#ifndef R3DB_RDBMS_EXEC_PARALLEL_OPS_H_
#define R3DB_RDBMS_EXEC_PARALLEL_OPS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "rdbms/exec/executor.h"

namespace r3 {
namespace rdbms {

/// Pages per morsel: the unit of work handed to scan workers. Small enough
/// for load balancing, large enough to amortize dispatch (~128 KB of data).
inline constexpr uint32_t kMorselPages = 16;

/// Morsel-driven exchange operator (Gather).
///
/// Splits a base table's heap pages into fixed-size morsels and assigns
/// morsel i to *lane* (i % dop) — a logical worker with its own SimClock
/// lane. OS threads (at most ExecContext::dop) execute the lanes; because
/// morsel->lane assignment is static and scan reads go through
/// BufferPool::ReadPageForScan (which never disturbs replacement state),
/// both the result rows and the per-lane simulated charges are identical
/// for every run and for every physical thread count. At the barrier the
/// lanes merge into the shared clock as max(lane elapsed) — critical-path
/// accounting of the parallel region.
///
/// Lanes exchange RowBatches: every worker fills a lane-local batch
/// (ExecContext::batch_size rows) and hands it to the consumer when it
/// fills up or the morsel ends. Batch granularity only changes how often
/// the consumer runs — per-row charges stay in-lane and rows stay in
/// morsel order, so results and simulated times are batch-size invariant.
///
/// Modes:
///  * kRows — parallel scan+filter. Rows are emitted in morsel order, which
///    equals the serial SeqScanOp's heap order, so downstream operators see
///    exactly the serial row stream.
///  * kPartialAgg — each lane additionally accumulates scan output into a
///    private hash-aggregation table; the barrier merges the partials and
///    emits finished groups in encoded-key order (the serial HashAggOp
///    order). DISTINCT aggregates are not mergeable and stay serial.
///
/// A HashJoinOp whose build child is a GatherOp instead calls
/// BuildJoinTable(): lanes evaluate build keys and pack rows in parallel and
/// the barrier inserts them into the JoinTable in morsel order — the serial
/// insertion order.
///
/// Like SeqScanOp, the lanes decode only `needed_cols` (table-local,
/// ascending; empty optional = all columns) of each record.
class GatherOp : public Operator {
 public:
  enum class Mode { kRows, kPartialAgg };

  /// Parallel scan+filter (Mode::kRows).
  GatherOp(const TableInfo* table, size_t offset, size_t wide_width,
           std::vector<const Expr*> filters,
           std::optional<std::vector<size_t>> needed_cols, int dop,
           uint64_t est_rows);

  /// Parallel partial aggregation (Mode::kPartialAgg). Output rows are
  /// [group values..., aggregate results...] like HashAggOp.
  GatherOp(const TableInfo* table, size_t offset, size_t wide_width,
           std::vector<const Expr*> filters,
           std::optional<std::vector<size_t>> needed_cols, int dop,
           uint64_t est_rows, std::vector<const Expr*> group_exprs,
           std::vector<const Expr*> agg_calls);

  size_t OutputWidth() const override;
  std::string Describe(bool analyze) const override;

  Mode mode() const { return mode_; }
  int dop() const { return dop_; }

  /// Partitioned hash-join build (called by HashJoinOp instead of Open).
  /// Scans in parallel, evaluates `keys` and packs the `range` values of
  /// each surviving row in the worker lanes, and fills `*table` (already
  /// Reset to `range.width`) in morsel order. Rows with NULL keys are
  /// dropped (SQL equi-join semantics).
  Status BuildJoinTable(ExecContext* ctx, const std::vector<const Expr*>& keys,
                        const FilledRange& range, JoinTable* table);

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  struct Morsel {
    uint32_t first_page = 0;
    uint32_t end_page = 0;  // exclusive
  };

  /// Per-lane scan scratch, reused across the lane's morsels.
  struct LaneScratch {
    RowBatch batch;          // filled rows awaiting hand-off
    size_t tail_first = 0;   // start of the not-yet-filtered tail
    SelVector sel;
  };

  /// Runs the parallel region: partitions the heap into morsels, executes
  /// the scan on worker lanes, calls `emit(morsel, lane, &batch)` from the
  /// owning worker for every filled batch of filter-surviving rows (always
  /// whole-morsel: a batch never spans morsels), then merges the lanes into
  /// the shared clock. `emit` must only touch lane/morsel-local state
  /// (slots indexed by `morsel` or `lane` are private to one worker) and
  /// may move rows out of the batch.
  Status RunParallel(
      ExecContext* ctx,
      const std::function<Status(size_t morsel, size_t lane, RowBatch* batch)>&
          emit);
  Status ScanMorsel(ExecContext* ctx, const Morsel& m, size_t morsel_idx,
                    size_t lane, char* page_buf, LaneScratch* scratch,
                    const std::function<Status(size_t, size_t, RowBatch*)>&
                        emit);
  /// Runs the filters over the unfiltered tail of the lane batch and
  /// compacts it; afterwards every held row is a survivor.
  Status FilterTail(ExecContext* ctx, EvalContext* ec, LaneScratch* scratch);

  const TableInfo* table_;
  size_t offset_;
  size_t wide_width_;
  std::vector<const Expr*> filters_;
  std::optional<std::vector<size_t>> needed_cols_;
  int dop_;
  uint64_t est_rows_;
  Mode mode_;
  std::vector<const Expr*> group_exprs_;
  std::vector<const Expr*> agg_calls_;

  std::vector<Morsel> morsels_;
  std::vector<std::vector<Row>> morsel_rows_;  // kRows: per-morsel output
  std::vector<Row> agg_results_;               // kPartialAgg: merged groups
  size_t out_morsel_ = 0;
  size_t out_pos_ = 0;
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_EXEC_PARALLEL_OPS_H_
