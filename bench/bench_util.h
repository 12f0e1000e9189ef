#ifndef R3DB_BENCH_BENCH_UTIL_H_
#define R3DB_BENCH_BENCH_UTIL_H_

// Shared setup for the per-table benchmark binaries. Each binary regenerates
// one table of the paper; all of them accept:
//   --sf=<double>       scale factor (default 0.01; the paper used 0.2)
//   --seed=<n>          dbgen seed (integer >= 0)
//   --json              machine-readable results: one JSON document on
//                       stdout, the human report rerouted to stderr
//   --trace-json=<path> write a Chrome trace_event JSON of the bench's
//                       measured run (load via chrome://tracing / Perfetto)
//   --out=<path>        write the same JSON document (schema-versioned) to a
//                       file, independent of --json — the perf-trajectory
//                       harness input (tools/bench_compare.py)
// and print a paper-vs-measured comparison. An unknown flag or a malformed
// value prints the usage line and exits with status 2. Absolute paper
// numbers were measured on 1996 hardware at SF=0.2; the *shape* (ratios,
// orderings, crossovers) is the reproduction target — see EXPERIMENTS.md.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "appsys/app_server.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "sap/loader.h"
#include "sap/schema.h"
#include "sap/views.h"
#include "tpcd/dbgen.h"
#include "tpcd/loader.h"
#include "tpcd/schema.h"

#define BENCH_CHECK_OK(expr)                                             \
  do {                                                                   \
    ::r3::Status _st = (expr);                                           \
    if (!_st.ok()) {                                                     \
      std::fprintf(stderr, "FATAL at %s:%d: %s\n", __FILE__, __LINE__,   \
                   _st.ToString().c_str());                              \
      std::exit(1);                                                      \
    }                                                                    \
  } while (false)

namespace r3 {
namespace bench {

struct Flags {
  double sf = 0.01;
  uint64_t seed = 19970607;
  bool json = false;        ///< emit one JSON document on stdout
  std::string trace_json;   ///< when non-empty: Chrome trace output path
  std::string out;          ///< when non-empty: result-file output path
  std::string engine = "row";  ///< default table storage engine
  int saved_stdout = -1;    ///< original stdout fd while json reroutes it
};

/// Parses all of `text` as a base-10 integer; false on an empty string,
/// trailing junk or overflow.
inline bool ParseInt(const char* text, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

/// A bench's extra flags, registered with the shared parser so every binary
/// spells options identically (--flag for booleans, --flag=<v> otherwise),
/// shows them in --help, and rejects unknown flags and malformed values the
/// same way (usage line on stderr, exit status 2):
///
///   bench::FlagSet extras;
///   extras.Bool("st05", &st05);
///   extras.Str("streams", &streams);
///   bench::Flags flags = bench::ParseFlags(argc, argv, &extras);
class FlagSet {
 public:
  void Bool(const char* name, bool* target) {
    entries_.push_back({name, target, nullptr, nullptr});
  }
  void Int(const char* name, int64_t* target) {
    entries_.push_back({name, nullptr, target, nullptr});
  }
  void Str(const char* name, std::string* target) {
    entries_.push_back({name, nullptr, nullptr, target});
  }

  /// Consumes `arg` if it matches a registered flag; sets `*bad_value` when
  /// the flag matched but its value does not parse.
  bool TryParse(const char* arg, bool* bad_value) {
    if (std::strncmp(arg, "--", 2) != 0) return false;
    for (Entry& e : entries_) {
      size_t n = e.name.size();
      if (e.bool_target != nullptr) {
        if (std::strcmp(arg + 2, e.name.c_str()) == 0) {
          *e.bool_target = true;
          return true;
        }
        continue;
      }
      if (std::strncmp(arg + 2, e.name.c_str(), n) != 0 || arg[2 + n] != '=')
        continue;
      const char* value = arg + 2 + n + 1;
      if (e.int_target != nullptr) {
        *bad_value = !ParseInt(value, e.int_target);
      } else {
        *e.str_target = value;
      }
      return true;
    }
    return false;
  }

  std::string Usage() const {
    std::string out;
    for (const Entry& e : entries_) {
      out += " [--" + e.name + (e.bool_target != nullptr ? "]" : "=<v>]");
    }
    return out;
  }

 private:
  struct Entry {
    std::string name;
    bool* bool_target;
    int64_t* int_target;
    std::string* str_target;
  };
  std::vector<Entry> entries_;
};

inline std::string Usage(const char* argv0, const FlagSet* extras) {
  return str::Format(
      "usage: %s [--sf=<double>] [--seed=<n>] [--json] "
      "[--trace-json=<path>] [--out=<path>] [--engine=row|columnar]%s",
      argv0, extras != nullptr ? extras->Usage().c_str() : "");
}

/// Prints `what arg` and the usage line on stderr, then exits with status 2.
[[noreturn]] inline void UsageError(const char* argv0, const FlagSet* extras,
                                    const char* what, const char* arg) {
  std::fprintf(stderr, "%s: %s %s\n%s\n", argv0, what, arg,
               Usage(argv0, extras).c_str());
  std::exit(2);
}

inline Flags ParseFlags(int argc, char** argv, FlagSet* extras = nullptr) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    bool bad_value = false;
    if (std::strncmp(argv[i], "--sf=", 5) == 0) {
      const char* text = argv[i] + 5;
      char* end = nullptr;
      f.sf = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(f.sf) || f.sf <= 0) {
        UsageError(argv[0], extras, "--sf needs a finite number > 0, got",
                   argv[i]);
      }
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      int64_t seed = 0;
      if (!ParseInt(argv[i] + 7, &seed) || seed < 0) {
        UsageError(argv[0], extras, "--seed needs an integer >= 0, got",
                   argv[i]);
      }
      f.seed = static_cast<uint64_t>(seed);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      f.json = true;
    } else if (std::strncmp(argv[i], "--trace-json=", 13) == 0) {
      f.trace_json = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      f.out = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      f.engine = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("%s\n", Usage(argv[0], extras).c_str());
      std::exit(0);
    } else if (extras != nullptr && extras->TryParse(argv[i], &bad_value)) {
      if (bad_value) {
        UsageError(argv[0], extras, "malformed value in", argv[i]);
      }
    } else {
      UsageError(argv[0], extras, "unknown flag", argv[i]);
    }
  }
  if (f.json) {
    // Keep stdout pure JSON: every printf in the bench (and in shared
    // builders) goes to stderr instead; EmitJson() writes to the saved fd.
    std::fflush(stdout);
    f.saved_stdout = dup(STDOUT_FILENO);
    dup2(STDERR_FILENO, STDOUT_FILENO);
  }
  return f;
}

/// The start of every bench's JSON document: identity + parameters.
inline json::Value BenchDoc(const char* bench, const Flags& f) {
  json::Value doc = json::Value::Object();
  doc.Set("bench", json::Value::Str(bench));
  doc.Set("sf", json::Value::Double(f.sf));
  doc.Set("seed", json::Value::Int(static_cast<int64_t>(f.seed)));
  return doc;
}

/// Current layout version of the bench result files. Bump on any change to
/// the meaning (not just the set) of emitted keys; tools/bench_compare.py
/// refuses to diff documents with mismatched versions.
constexpr int64_t kBenchSchemaVersion = 1;

/// Recursively drops wall-clock and environment keys (real_us, trace_file,
/// trace_events) so the result file is byte-identical across runs and
/// machines — the property the perf-trajectory harness builds on. The
/// --json stdout document keeps them: interactive runs want wall time.
inline json::Value StripVolatileKeys(const json::Value& v) {
  if (v.is_object()) {
    json::Value out = json::Value::Object();
    for (const auto& [key, value] : v.members()) {
      if (key == "real_us" || key == "trace_file" || key == "trace_events") {
        continue;
      }
      out.Set(key, StripVolatileKeys(value));
    }
    return out;
  }
  if (v.is_array()) {
    json::Value out = json::Value::Array();
    for (const json::Value& item : v.items()) {
      out.Append(StripVolatileKeys(item));
    }
    return out;
  }
  return v;
}

/// Writes `doc` as a schema-versioned result file to flags.out — the
/// perf-trajectory harness record compared against the committed
/// BENCH_<name>.json baselines by tools/bench_compare.py. No-op when --out
/// was not given. Works with or without --json.
inline void WriteBenchFile(const Flags& f, const json::Value& doc) {
  if (f.out.empty()) return;
  json::Value versioned = json::Value::Object();
  versioned.Set("schema_version", json::Value::Int(kBenchSchemaVersion));
  for (const auto& [key, value] : doc.members()) {
    versioned.Set(key, StripVolatileKeys(value));
  }
  std::string text = versioned.Dump(2);
  text += '\n';
  std::FILE* fp = std::fopen(f.out.c_str(), "w");
  if (fp == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open --out file %s\n", f.out.c_str());
    std::exit(1);
  }
  std::fwrite(text.data(), 1, text.size(), fp);
  std::fclose(fp);
  std::printf("[bench result -> %s]\n", f.out.c_str());
}

/// Writes `doc` (plus a trailing newline) to the real stdout (no-op without
/// --json) and to the --out result file (no-op without --out). Every bench
/// funnels its finished document through here.
inline void EmitJson(const Flags& f, const json::Value& doc) {
  WriteBenchFile(f, doc);
  if (!f.json || f.saved_stdout < 0) return;
  std::string text = doc.Dump(2);
  text += '\n';
  size_t off = 0;
  while (off < text.size()) {
    ssize_t n = write(f.saved_stdout, text.data() + off, text.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
}

/// Exports `tracer` to flags.trace_json and records the path (and event
/// count) in `doc`. No-op when --trace-json was not given.
inline void MaybeWriteTrace(const Flags& f, const Tracer& tracer,
                            json::Value* doc) {
  if (f.trace_json.empty()) return;
  BENCH_CHECK_OK(tracer.WriteChromeJson(f.trace_json));
  std::printf("[trace: %zu events -> %s]\n", tracer.event_count(),
              f.trace_json.c_str());
  if (doc != nullptr) {
    doc->Set("trace_file", json::Value::Str(f.trace_json));
    doc->Set("trace_events",
             json::Value::Int(static_cast<int64_t>(tracer.event_count())));
  }
}

/// Memory parameters scale with SF so the data-to-memory geometry matches
/// the paper's (10 MB of RDBMS buffer against a 2.8 GB database at SF=0.2).
/// Without this, a small-SF database fits in the buffer pool entirely and
/// every I/O effect disappears.
inline rdbms::DatabaseOptions ScaledDbOptions(double sf) {
  rdbms::DatabaseOptions opts;
  double scale = sf / 0.2;
  opts.buffer_pool_bytes = static_cast<size_t>(
      std::max(128.0 * 1024, (10u << 20) * scale));
  opts.work_mem_bytes = static_cast<size_t>(
      std::max(64.0 * 1024, (4u << 20) * scale));
  return opts;
}

/// The isolated-RDBMS configuration: original TPC-D schema, loaded, analyzed.
/// Pass a registry when the bench builds several systems side by side, so
/// their metrics don't mix in GlobalMetrics().
/// Resolves --engine; exits with a usage error on an unknown name.
inline rdbms::EngineKind EngineFromFlags(const Flags& f) {
  auto kind = rdbms::ParseEngineKind(f.engine);
  BENCH_CHECK_OK(kind.status());
  return kind.value();
}

inline std::unique_ptr<rdbms::Database> BuildRdbmsSystem(
    tpcd::DbGen* gen, MetricsRegistry* metrics = nullptr,
    rdbms::EngineKind engine = rdbms::EngineKind::kRowHeap) {
  rdbms::DatabaseOptions db_opts = ScaledDbOptions(gen->scale_factor());
  db_opts.metrics = metrics;
  db_opts.default_engine = engine;
  auto db = std::make_unique<rdbms::Database>(nullptr, db_opts);
  BENCH_CHECK_OK(tpcd::CreateTpcdSchema(db.get()));
  BENCH_CHECK_OK(tpcd::LoadTpcdDatabase(db.get(), gen));
  return db;
}

/// A complete application-system installation with the SAP-mapped TPC-D
/// schema loaded (fast path) and analyzed. `convert_konv` models the 3.0
/// conversion; `drop_shipdate_index` models the paper's 3.0 tuning step.
/// FastLoadAll analyzes every table and the KONV conversion re-analyzes
/// KONV, so no further ANALYZE is needed here.
inline std::unique_ptr<appsys::R3System> BuildSapSystem(
    tpcd::DbGen* gen, appsys::Release release, bool convert_konv,
    bool drop_shipdate_index = false, size_t table_buffer_bytes = 0,
    MetricsRegistry* metrics = nullptr,
    rdbms::EngineKind engine = rdbms::EngineKind::kRowHeap) {
  appsys::AppServerOptions opts;
  opts.release = release;
  opts.table_buffer_bytes = table_buffer_bytes;
  rdbms::DatabaseOptions db_opts = ScaledDbOptions(gen->scale_factor());
  db_opts.metrics = metrics;
  db_opts.default_engine = engine;
  auto sys = std::make_unique<appsys::R3System>(opts, db_opts);
  BENCH_CHECK_OK(sys->app.Bootstrap());
  BENCH_CHECK_OK(sap::CreateSapSchema(&sys->app));
  BENCH_CHECK_OK(sap::CreateJoinViews(&sys->app));
  sap::SapLoader loader(&sys->app, gen);
  BENCH_CHECK_OK(loader.FastLoadAll());
  if (convert_konv) {
    BENCH_CHECK_OK(sys->app.dictionary()->ConvertToTransparent(
        "KONV", appsys::Release::kRelease30));
  }
  if (drop_shipdate_index) {
    BENCH_CHECK_OK(sys->db.catalog()->DropIndex("VBEP~E"));
  }
  return sys;
}

/// One row of a paper-vs-measured table.
inline void PrintRow(const std::string& label, const std::string& paper,
                     int64_t sim_us) {
  std::printf("  %-10s paper: %-12s measured(sim): %s\n", label.c_str(),
              paper.c_str(), FormatDuration(sim_us).c_str());
}

inline void PrintHeader(const std::string& title, const Flags& f) {
  std::printf("=====================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("scale factor %.4g (paper: 0.2), seed %llu\n", f.sf,
              static_cast<unsigned long long>(f.seed));
  std::printf("=====================================================\n");
}

}  // namespace bench
}  // namespace r3

#endif  // R3DB_BENCH_BENCH_UTIL_H_
