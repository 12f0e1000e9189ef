#ifndef R3DB_APPSYS_CONNECTION_H_
#define R3DB_APPSYS_CONNECTION_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "appsys/sql_trace.h"
#include "appsys/workload_monitor.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/trace.h"
#include "rdbms/db.h"

namespace r3 {
namespace appsys {

/// The application-server-to-RDBMS wire (Figure 2's "database interface").
///
/// Every call crosses the process boundary (charged as a round trip) and
/// every result tuple crossing back is charged a ship cost — this is the
/// per-tuple "crossing the interface" overhead the paper identifies for
/// nested-SELECT joins. Open SQL's cursor cache rides on the database's
/// prepared-statement cache: a repeated statement skips the hard parse.
class DbConnection {
 public:
  /// Interface counters are mirrored into the database's MetricsRegistry
  /// under `appsys.connection.*`.
  DbConnection(rdbms::Database* db, SimClock* clock)
      : db_(db), clock_(clock) {
    MetricsRegistry* metrics = db_->metrics();
    m_round_trips_ = metrics->GetCounter("appsys.connection.round_trips");
    m_rows_shipped_ = metrics->GetCounter("appsys.connection.rows_shipped");
    m_cursor_hits_ =
        metrics->GetCounter("appsys.connection.cursor_cache_hits");
    m_cursor_misses_ =
        metrics->GetCounter("appsys.connection.cursor_cache_misses");
    m_bp_physical_reads_ =
        metrics->GetCounter("rdbms.bufferpool.physical_reads");
  }

  /// Native SQL path: statement text with literals, no cursor caching
  /// (EXEC SQL re-parses each time).
  Result<rdbms::QueryResult> ExecuteSql(const std::string& sql,
                                        const std::vector<rdbms::Value>& params = {});

  /// Open SQL path: parameterized text, cursor-cached. The first execution
  /// pays the hard parse; re-executions with new bindings reopen the cursor.
  Result<rdbms::QueryResult> ExecuteCursor(const std::string& sql,
                                           const std::vector<rdbms::Value>& params);

  /// DML through the interface.
  Status ExecuteDml(const std::string& sql,
                    const std::vector<rdbms::Value>& params,
                    int64_t* affected_rows = nullptr);

  struct Stats {
    int64_t round_trips = 0;
    int64_t rows_shipped = 0;
    int64_t cursor_cache_hits = 0;
    int64_t cursor_cache_misses = 0;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  rdbms::Database* db() { return db_; }

  /// Attaches an ST05-style trace: every successful call through this
  /// connection is recorded. Null (the default) detaches — the only cost
  /// left is one pointer test per call.
  void set_sql_trace(SqlTrace* trace) { sql_trace_ = trace; }
  SqlTrace* sql_trace() { return sql_trace_; }

  /// Attaches an ST03-style workload monitor: each call's simulated time is
  /// booked as database-request time of the monitor's open dialog step.
  void set_workload_monitor(WorkloadMonitor* monitor) {
    workload_monitor_ = monitor;
  }
  WorkloadMonitor* workload_monitor() { return workload_monitor_; }

 private:
  void ChargeShipment(const rdbms::QueryResult& result);

  /// One call across the interface: opens the `interface/<span_name>` span,
  /// charges the round trip and runs `call(&span, &event)`, which does the
  /// database work and fills the interface-specific trace fields. On success
  /// the call's simulated time is booked with the workload monitor and the
  /// event, completed with the fields every call shares, goes to the SQL
  /// trace. On error nothing is recorded.
  template <typename Call>
  Status RoundTrip(const char* span_name, SqlInterface kind,
                   const std::string& sql,
                   const std::vector<rdbms::Value>& params, Call&& call);

  rdbms::Database* db_;
  SimClock* clock_;
  Stats stats_;
  /// Cursor-cache keys: the statement text, or `sql \x1f bucket` when the
  /// database peeks binds (one cursor per plan variant).
  std::unordered_set<std::string> seen_statements_;
  Counter* m_round_trips_;
  Counter* m_rows_shipped_;
  Counter* m_cursor_hits_;
  Counter* m_cursor_misses_;
  /// The buffer pool's miss counter in the same registry — read before and
  /// after a traced call to attribute physical reads per statement.
  Counter* m_bp_physical_reads_;
  SqlTrace* sql_trace_ = nullptr;
  WorkloadMonitor* workload_monitor_ = nullptr;
};

}  // namespace appsys
}  // namespace r3

#endif  // R3DB_APPSYS_CONNECTION_H_
