// Wall-clock benchmark of R3DB. One run sets up, measures and checks one
// workload; see README.md.
//
//   wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--corrupt-reference]
//
// The human report goes to stderr; the last line on stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when
// every check passed, 1 when a check failed, 2 when the run could not be
// carried out (no result line then).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.h"
#include "wallbench/workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>] "
               "[--corrupt-reference]\nworkloads:",
               argv0);
  for (const std::string& name : r3::wallbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  r3::wallbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--corrupt-reference") {
      opts.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
      continue;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      opts.trace = std::strtol(value, &end, 10) != 0;
    } else if (arg == "--trace-out") {
      opts.trace_out = value;
      continue;
    } else {
      return Usage(argv[0]);
    }
    if (end == value || *end != '\0') return Usage(argv[0]);
  }
  if (opts.workload.empty() || opts.seconds <= 0) {
    return Usage(argv[0]);
  }

  auto result = r3::wallbench::RunBenchmark(opts);
  if (!result.ok()) {
    std::fprintf(stderr, "wallbench: %s\n", result.status().ToString().c_str());
    return 2;
  }
  const r3::wallbench::RunReport& report = result.value();

  std::fprintf(stderr, "== %s seed %llu (%s run)\n", opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed),
               opts.trace ? "traced" : "untraced");
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  for (const auto& m : report.metrics) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "  FAILED: %s\n", p.c_str());
  }

  using r3::json::Value;
  Value metrics = Value::Object();
  for (const auto& m : report.metrics) {
    Value v = Value::Object();
    v.Set("value", Value::Double(m.value));
    v.Set("unit", Value::Str(m.unit));
    metrics.Set(m.name, std::move(v));
  }
  Value doc = Value::Object();
  doc.Set("correct", Value::Bool(report.correct));
  doc.Set("attempted", Value::Int(report.attempted));
  doc.Set("failed", Value::Int(report.failed));
  doc.Set("metrics", std::move(metrics));
  std::printf("%s\n", doc.Dump().c_str());
  return report.correct ? 0 : 1;
}
