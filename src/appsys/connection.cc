#include "appsys/connection.h"

#include "common/trace.h"

namespace r3 {
namespace appsys {
namespace {

// Bind fingerprint for the SQL trace's identical-select detection: the
// parameter renderings '\x1f'-joined (a character that cannot appear in a
// rendered value).
std::string JoinBinds(const std::vector<rdbms::Value>& params) {
  std::string out;
  for (size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out += '\x1f';
    out += params[i].ToString();
  }
  return out;
}

}  // namespace

void DbConnection::ChargeShipment(const rdbms::QueryResult& result) {
  stats_.rows_shipped += static_cast<int64_t>(result.rows.size());
  m_rows_shipped_->Add(static_cast<int64_t>(result.rows.size()));
  clock_->ChargeTupleShip(static_cast<int64_t>(result.rows.size()));
}

template <typename Call>
Status DbConnection::RoundTrip(const char* span_name, SqlInterface kind,
                               const std::string& sql,
                               const std::vector<rdbms::Value>& params,
                               Call&& call) {
  TraceSpan span(clock_, "interface", span_name);
  int64_t start_us = clock_->NowMicros();
  int64_t phys_before =
      sql_trace_ != nullptr ? m_bp_physical_reads_->Value() : 0;
  ++stats_.round_trips;
  m_round_trips_->Add(1);
  clock_->ChargeRoundTrip();
  SqlTraceEvent e;
  R3_RETURN_IF_ERROR(call(&span, &e));
  int64_t dur_us = clock_->NowMicros() - start_us;
  if (workload_monitor_ != nullptr) {
    workload_monitor_->AddDbRequestTime(dur_us);
  }
  if (sql_trace_ != nullptr) {
    e.interface_kind = kind;
    e.sql = sql;
    e.binds = JoinBinds(params);
    e.sim_start_us = start_us;
    e.db_us = dur_us;
    e.physical_reads = m_bp_physical_reads_->Value() - phys_before;
    sql_trace_->RecordEvent(std::move(e));
  }
  return Status::OK();
}

Result<rdbms::QueryResult> DbConnection::ExecuteSql(
    const std::string& sql, const std::vector<rdbms::Value>& params) {
  rdbms::QueryResult result;
  R3_RETURN_IF_ERROR(RoundTrip(
      "db_call.exec_sql", SqlInterface::kNativeSql, sql, params,
      [&](TraceSpan* span, SqlTraceEvent* e) -> Status {
        R3_ASSIGN_OR_RETURN(result, db_->Query(sql, params));
        ChargeShipment(result);
        span->ArgInt("rows_shipped", static_cast<int64_t>(result.rows.size()));
        e->rows = static_cast<int64_t>(result.rows.size());
        return Status::OK();
      }));
  return result;
}

Result<rdbms::QueryResult> DbConnection::ExecuteCursor(
    const std::string& sql, const std::vector<rdbms::Value>& params) {
  rdbms::QueryResult result;
  R3_RETURN_IF_ERROR(RoundTrip(
      "db_call.cursor", SqlInterface::kOpenSql, sql, params,
      [&](TraceSpan* span, SqlTraceEvent* e) -> Status {
        rdbms::Database::BindPeekInfo peek;
        R3_ASSIGN_OR_RETURN(rdbms::PreparedStatement * stmt,
                            db_->PrepareWithParams(sql, params, &peek));
        // A hit needs this work process's cursor (one per plan variant when
        // the database peeks binds) and the database's cached plan: a new
        // bucket, or a plan flushed since (DDL, ANALYZE, DOP), is a miss.
        std::string cursor_key =
            peek.peeked ? sql + '\x1f' + static_cast<char>('0' + peek.bucket)
                        : sql;
        bool cursor_hit =
            !seen_statements_.insert(cursor_key).second && peek.hit;
        if (cursor_hit) {
          ++stats_.cursor_cache_hits;
          m_cursor_hits_->Add(1);
        } else {
          ++stats_.cursor_cache_misses;
          m_cursor_misses_->Add(1);
        }
        if (peek.peeked) span->ArgInt("peek_bucket", peek.bucket);
        R3_ASSIGN_OR_RETURN(rdbms::Cursor cur, db_->OpenCursor(stmt, params));
        result.schema = stmt->output_schema();
        result.column_names = stmt->column_names();
        rdbms::RowBatch batch(db_->batch_rows());
        int64_t fetches = 0;
        while (true) {
          R3_ASSIGN_OR_RETURN(bool ok, cur.FetchBatch(&batch));
          if (!ok) break;
          ++fetches;
          // The ship charge is per tuple crossing the interface; batching the
          // fetch amortizes the call, not the per-tuple cost.
          stats_.rows_shipped += static_cast<int64_t>(batch.size());
          m_rows_shipped_->Add(static_cast<int64_t>(batch.size()));
          clock_->ChargeTupleShip(static_cast<int64_t>(batch.size()));
          for (size_t i = 0; i < batch.size(); ++i) {
            result.rows.push_back(std::move(batch.row(i)));
          }
        }
        R3_RETURN_IF_ERROR(cur.Close());
        span->ArgInt("rows_shipped", static_cast<int64_t>(result.rows.size()));
        e->rows = static_cast<int64_t>(result.rows.size());
        e->fetches = fetches;
        e->cursor = cursor_hit ? 1 : 0;
        e->peeked = peek.peeked;
        e->bucket = peek.bucket;
        return Status::OK();
      }));
  return result;
}

Status DbConnection::ExecuteDml(const std::string& sql,
                                const std::vector<rdbms::Value>& params,
                                int64_t* affected_rows) {
  return RoundTrip("db_call.dml", SqlInterface::kDml, sql, params,
                   [&](TraceSpan*, SqlTraceEvent* e) -> Status {
                     int64_t affected = 0;
                     Status st = db_->Execute(sql, params, nullptr, &affected);
                     if (affected_rows != nullptr) *affected_rows = affected;
                     e->rows = affected;
                     return st;
                   });
}

}  // namespace appsys
}  // namespace r3
