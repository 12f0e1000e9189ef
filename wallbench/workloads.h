#ifndef R3DB_WALLBENCH_WORKLOADS_H_
#define R3DB_WALLBENCH_WORKLOADS_H_

// The benchmark's four workloads, and the run loop that sets them up, runs
// them for a wall-clock window, checks their answers and reduces the
// measurements to metrics. README.md describes what each one stresses.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdbms/db.h"

namespace r3 {
namespace wallbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Perturbs the answer reference, so a correct run must fail its check.
  bool corrupt_reference = false;
  /// Where a traced run writes its first trace chunk ("" = nowhere).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines: configuration, tail percentiles, failures.
  std::vector<std::string> notes;
  std::vector<std::string> problems;
};

const std::vector<std::string>& WorkloadNames();

/// The metric names (and units) a run prints: end-to-end ones untraced,
/// per-layer ones traced.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Sets up, runs and checks one workload. An error means the run could not
/// be carried out at all (unknown workload, engine error during set-up).
Result<RunReport> RunBenchmark(const RunOptions& options);

/// Answers of one TPC-D query path, keyed by (parameter set, query).
using AnswerMap = std::map<std::pair<int, int>, rdbms::QueryResult>;

/// True when query `q`'s output order is fully specified.
bool OrderedOutput(int q);

/// Compares every answer in `answers` with the `reference` answer of the
/// same key; returns one line per mismatch or missing reference.
std::vector<std::string> CompareAnswers(const std::string& what,
                                        const AnswerMap& reference,
                                        const AnswerMap& answers);

/// Perturbs one numeric value of `answers`, so a comparison against it fails.
void CorruptAnswers(AnswerMap* answers);

}  // namespace wallbench
}  // namespace r3

#endif  // R3DB_WALLBENCH_WORKLOADS_H_
