// Table 12 (beyond the paper): multi-app-server scale-out under an
// interactive dialog load. The paper's Section 5 benchmark drove thousands
// of simulated users against multi-server R/3 installations and graded them
// by dialog-step response time ("good" below one second, "acceptable" below
// two); this bench reproduces that setup as a discrete-event simulation:
// N app-server instances — each with its own dispatcher, typed work-process
// pools, table buffer and cursor caches — share one RDBMS, while an
// open-loop workload of dialog users (VA03/MM03/VA05/VA01 with think times)
// plus background report streams arrives on the virtual timeline.
//
//   --users=<a,b,...>    user counts to sweep (default 10,200,1000)
//   --servers=<a,b,...>  app-server counts to sweep (default 1,2)
//   --duration-s=<n>     arrival horizon in virtual seconds (default 600)
//   --think-ms=<n>       mean user think time (default 10000)
//   --streams=<n>        background report streams (default 1)
//   --st05               merge per-WP SQL traces and report top statements
//
// Reported per point: dialog-step response-time percentiles (p50/p95/p99),
// work-process utilization, queue depths, and admission-control rejections.
// The expected shape: response time flat while dialog-WP utilization is
// low, a saturation knee once offered load approaches the pool capacity,
// and a second server moving the knee right (lower p95 at high user
// counts). Every number is virtual-time, byte-identical across runs.
#include <string>
#include <vector>

#include "appsys/dispatch/landscape.h"
#include "appsys/sql_trace.h"
#include "bench/bench_util.h"
#include "sap/dialog_workload.h"

namespace r3 {
namespace bench {
namespace {

using appsys::dispatch::LandscapeOptions;
using appsys::dispatch::SystemLandscape;
using appsys::dispatch::WpClass;

/// Replaces `*out` with the comma-separated positive integers in `s`; an
/// empty `s` keeps the default. False on any malformed element.
bool ParseIntList(const std::string& s, std::vector<int>* out) {
  if (s.empty()) return true;
  out->clear();
  for (size_t pos = 0; pos <= s.size();) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    int64_t v = 0;
    if (!ParseInt(s.substr(pos, comma - pos).c_str(), &v) || v <= 0 ||
        v > INT32_MAX) {
      return false;
    }
    out->push_back(static_cast<int>(v));
    pos = comma + 1;
  }
  return true;
}

int Run(int argc, char** argv) {
  std::string users_arg;
  std::string servers_arg;
  int64_t duration_s = 600;
  int64_t think_ms = 10000;
  int64_t streams = 1;
  bool st05 = false;
  FlagSet extras;
  extras.Str("users", &users_arg);
  extras.Str("servers", &servers_arg);
  extras.Int("duration-s", &duration_s);
  extras.Int("think-ms", &think_ms);
  extras.Int("streams", &streams);
  extras.Bool("st05", &st05);
  Flags flags = ParseFlags(argc, argv, &extras);
  std::vector<int> user_counts = {10, 200, 1000};
  std::vector<int> server_counts = {1, 2};
  if (!ParseIntList(users_arg, &user_counts)) {
    UsageError(argv[0], &extras, "malformed --users list:",
               users_arg.c_str());
  }
  if (!ParseIntList(servers_arg, &server_counts)) {
    UsageError(argv[0], &extras, "malformed --servers list:",
               servers_arg.c_str());
  }

  PrintHeader("Table 12: dialog scale-out (Section 5 user benchmark)",
              flags);
  std::printf("horizon %llds, mean think %lldms, %lld report stream(s)\n",
              static_cast<long long>(duration_s),
              static_cast<long long>(think_ms),
              static_cast<long long>(streams));

  json::Value doc = BenchDoc("table12_scaleout", flags);
  doc.Set("duration_s", json::Value::Int(duration_s));
  doc.Set("think_ms", json::Value::Int(think_ms));
  doc.Set("report_streams", json::Value::Int(streams));
  json::Value points = json::Value::Array();

  std::printf(
      "\n  %7s %4s | %8s %8s %6s | %8s %8s %8s | %6s %5s\n", "users",
      "srv", "offered", "done", "rej", "p50", "p95", "p99", "dia%", "peakQ");

  for (int servers : server_counts) {
    for (int users : user_counts) {
      // A fresh installation per point: VA01 postings grow the document
      // tables, so sharing one database across points would let earlier
      // points distort later ones.
      tpcd::DbGen gen(flags.sf, flags.seed);
      MetricsRegistry metrics;
      auto sys = BuildSapSystem(&gen, appsys::Release::kRelease30,
                                /*convert_konv=*/true,
                                /*drop_shipdate_index=*/false,
                                /*table_buffer_bytes=*/0, &metrics);

      LandscapeOptions lopts;
      lopts.num_instances = servers;
      lopts.instance.st05 = st05;
      SystemLandscape landscape(&sys->db, sys->app.dictionary(), lopts);
      BENCH_CHECK_OK(landscape.Start());

      sap::SapKeySpace keys{gen.NumOrders(), gen.NumParts(),
                            gen.NumCustomers(), gen.NumSuppliers()};
      sap::DialogWorkloadOptions wopts;
      wopts.users = users;
      wopts.duration_s = duration_s;
      wopts.mean_think_ms = think_ms;
      wopts.report_streams = static_cast<int>(streams);
      wopts.seed = flags.seed;
      auto plan = sap::GenerateDialogWorkload(keys, wopts);

      auto run = landscape.Run(std::move(plan),
                               sap::MakeSapScriptRunner(keys));
      BENCH_CHECK_OK(run.status());
      const SystemLandscape::RunResult& r = run.value();

      const auto& dia = r.per_class[static_cast<size_t>(WpClass::kDialog)];
      std::printf(
          "  %7d %4d | %8lld %8lld %6lld | %7.0fms %7.0fms %7.0fms | "
          "%5.1f%% %5lld\n",
          users, servers, static_cast<long long>(r.offered),
          static_cast<long long>(r.completed),
          static_cast<long long>(r.rejected), r.dialog_p50_us / 1000.0,
          r.dialog_p95_us / 1000.0, r.dialog_p99_us / 1000.0,
          dia.utilization * 100.0,
          static_cast<long long>(dia.peak_queue_depth));

      json::Value point = json::Value::Object();
      point.Set("servers", json::Value::Int(servers));
      point.Set("users", json::Value::Int(users));
      point.Set("run", r.ToJson());
      if (st05) {
        appsys::SqlTrace combined;
        landscape.CombineTraces(&combined);
        point.Set("st05", combined.ToJson(5));
      }
      points.Append(std::move(point));
    }
  }
  doc.Set("points", std::move(points));

  std::printf(
      "\nThe paper's grading: <1s good, <2s acceptable. Watch the p95 knee\n"
      "move right as servers are added — dispatching, not the database, is\n"
      "the first bottleneck at these loads.\n");
  EmitJson(flags, doc);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace r3

int main(int argc, char** argv) { return r3::bench::Run(argc, argv); }
