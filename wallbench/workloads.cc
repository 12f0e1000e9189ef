#include "wallbench/workloads.h"

#include <sys/resource.h>

#include <cstdio>
#include <memory>
#include <set>

#include "appsys/dispatch/landscape.h"
#include "bench/bench_util.h"
#include "sap/dialog_workload.h"
#include "tpcd/queries.h"
#include "tpcd/update_functions.h"
#include "tpcd/validate.h"
#include "wallbench/harness.h"

namespace r3 {
namespace wallbench {

namespace {

using appsys::dispatch::SystemLandscape;

/// Parameter sets a TPC-D workload cycles through. Query costs depend on
/// the parameters, so more sets make runs of different seeds more alike.
constexpr int kParamCycle = 4;
/// Set-ups per run: at least this many, and at least this much set-up time,
/// so that a set-up of a few milliseconds is sampled often enough to give a
/// steady median. setup_s is their median.
constexpr size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 3;
/// Trace-event cap: above the largest single op (Q1 on the SAP paths
/// records about 430 k events), so nothing is dropped between reductions.
constexpr size_t kMaxTraceEvents = 4u << 20;

constexpr double kTpcdSf = 0.01;
constexpr double kSapSf = 0.005;
constexpr double kLoadSf = 0.001;
constexpr double kDialogSf = 0.005;
constexpr int kDialogUsers = 300;
constexpr int kDialogServers = 2;
constexpr int64_t kDialogHorizonS = 3600;

struct SetupSample {
  double total_s = 0;
  double load_s = 0;
  double analyze_s = 0;
};

/// Row count and content checksum of every table but the number-range
/// table NRIV, whose counters depend on how rows were entered.
using Digest = std::map<std::string, std::pair<uint64_t, uint64_t>>;

Result<Digest> TakeDigest(rdbms::Database* db) {
  Digest out;
  for (const rdbms::TableInfo* t : db->catalog()->AllTables()) {
    if (t->name == "NRIV") continue;
    R3_ASSIGN_OR_RETURN(uint64_t sum, db->TableChecksum(t->name));
    out[t->name] = {t->row_count, sum};
  }
  return out;
}

std::vector<std::string> CompareDigests(const std::string& what,
                                        const Digest& expected,
                                        const Digest& actual) {
  std::vector<std::string> out;
  std::set<std::string> names;
  for (const auto& [name, v] : expected) names.insert(name);
  for (const auto& [name, v] : actual) names.insert(name);
  for (const std::string& name : names) {
    auto e = expected.find(name);
    auto a = actual.find(name);
    if (e == expected.end() || a == actual.end() || e->second != a->second) {
      out.push_back(what + ": table " + name + " differs");
    }
  }
  return out;
}

std::string QueryLabel(const char* path, int q) {
  return std::string(path) + ".Q" + std::to_string(q);
}

tpcd::QueryParams ParamSet(double sf, uint64_t seed, int p) {
  return tpcd::QueryParams::Make(sf, seed * 7919 + static_cast<uint64_t>(p));
}

/// Keeps the first answer per key; later answers must be equivalent to it.
void RecordAnswer(Ctx* ctx, const char* path, AnswerMap* answers, int p,
                  int q, rdbms::QueryResult res) {
  auto [it, inserted] = answers->try_emplace({p, q}, std::move(res));
  if (inserted) return;
  std::string diff;
  if (!tpcd::ResultsEquivalent(it->second, res, OrderedOutput(q), &diff)) {
    ctx->Mismatch(QueryLabel(path, q) + " changed between passes: " + diff);
  }
}

/// Runs one query path's power pass (UF1, Q1..Q17, UF2) untimed, for a
/// reference built after the measured window.
Status ReferencePass(tpcd::IQuerySet* queries, const tpcd::QueryParams& params,
                     int p, const std::function<Status()>& uf1,
                     const std::function<Status()>& uf2, AnswerMap* out) {
  R3_RETURN_IF_ERROR(uf1());
  for (int q = 1; q <= tpcd::kNumQueries; ++q) {
    R3_ASSIGN_OR_RETURN(rdbms::QueryResult res, queries->RunQuery(q, params));
    (*out)[{p, q}] = std::move(res);
  }
  return uf2();
}

/// The isolated-RDBMS system at paper memory geometry.
Result<std::unique_ptr<rdbms::Database>> BuildRdbms(tpcd::DbGen* gen,
                                                   MetricsRegistry* metrics,
                                                   SetupSample* s) {
  rdbms::DatabaseOptions opts = bench::ScaledDbOptions(gen->scale_factor());
  opts.metrics = metrics;
  auto db = std::make_unique<rdbms::Database>(nullptr, opts);
  R3_RETURN_IF_ERROR(tpcd::CreateTpcdSchema(db.get()));
  double t = WallSeconds();
  R3_RETURN_IF_ERROR(tpcd::LoadTpcdDatabase(db.get(), gen));
  s->load_s = WallSeconds() - t;
  return db;
}

/// The SAP-mapped system, step for step as bench::BuildSapSystem builds it,
/// with the load (FastLoadAll, which ends in its own ANALYZE, plus the KONV
/// conversion) and the later ANALYZE timed apart.
Result<std::unique_ptr<appsys::R3System>> BuildSap(tpcd::DbGen* gen,
                                                   appsys::Release release,
                                                   bool convert_konv,
                                                   MetricsRegistry* metrics,
                                                   SetupSample* s) {
  appsys::AppServerOptions opts;
  opts.release = release;
  rdbms::DatabaseOptions db_opts = bench::ScaledDbOptions(gen->scale_factor());
  db_opts.metrics = metrics;
  auto sys = std::make_unique<appsys::R3System>(opts, db_opts);
  R3_RETURN_IF_ERROR(sys->app.Bootstrap());
  R3_RETURN_IF_ERROR(sap::CreateSapSchema(&sys->app));
  R3_RETURN_IF_ERROR(sap::CreateJoinViews(&sys->app));
  double t = WallSeconds();
  sap::SapLoader loader(&sys->app, gen);
  R3_RETURN_IF_ERROR(loader.FastLoadAll());
  if (convert_konv) {
    R3_RETURN_IF_ERROR(sys->app.dictionary()->ConvertToTransparent(
        "KONV", appsys::Release::kRelease30));
  }
  s->load_s = WallSeconds() - t;
  t = WallSeconds();
  R3_RETURN_IF_ERROR(sys->db.Analyze());
  s->analyze_s = WallSeconds() - t;
  return sys;
}

/// One workload: a system it can set up afresh and units of work (a power
/// pass, a load, a landscape run) it runs on the current system.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Replaces the current system with a freshly built one.
  virtual Status Setup(SetupSample* s) = 0;
  /// Runs one unit of work on the current system.
  virtual Status RunUnit(Ctx* ctx) = 0;
  /// True when a unit changes the data for good, so each needs a set-up.
  virtual bool fresh_setup_per_unit() const = 0;
  /// Units in one full cycle of the workload's inputs. A window holds whole
  /// cycles, so every run mixes its inputs in the same proportions.
  virtual int unit_cycle() const { return 1; }
  virtual rdbms::Database* db() = 0;
  /// Checks everything recorded so far against a reference built from
  /// another path; each mismatch fails one op.
  virtual Status Verify(Ctx* ctx, bool corrupt) = 0;
  /// Workload-specific per-layer metrics over the ops in `log`.
  virtual void LayerMetrics(const OpLog& log,
                            std::map<std::string, double>* out) const {
    (void)log;
    (void)out;
  }
  virtual std::vector<std::string> Notes() const { return {}; }
};

// ---------------------------------------------------------------------------
// tpcd_power_rdbms: the isolated RDBMS power test.
// ---------------------------------------------------------------------------

class TpcdRdbms : public Workload {
 public:
  TpcdRdbms(double sf, uint64_t seed) : sf_(sf), seed_(seed) {
    for (int p = 0; p < kParamCycle; ++p) params_.push_back(ParamSet(sf, seed, p));
  }

  Status Setup(SetupSample* s) override {
    queries_.reset();
    db_.reset();
    double t = WallSeconds();
    gen_ = std::make_unique<tpcd::DbGen>(sf_, seed_);
    metrics_ = std::make_unique<MetricsRegistry>();
    R3_ASSIGN_OR_RETURN(db_, BuildRdbms(gen_.get(), metrics_.get(), s));
    queries_ = tpcd::MakeRdbmsQuerySet(db_.get());
    pass_ = 0;
    s->total_s = WallSeconds() - t;
    return Status::OK();
  }

  Status RunUnit(Ctx* ctx) override {
    int p = pass_++ % kParamCycle;
    sets_used_ = std::max(sets_used_, std::min(pass_, kParamCycle));
    const int64_t uf = tpcd::UpdateFunctionCount(*gen_);
    tpcd::RefreshVerifier verifier;
    R3_RETURN_IF_ERROR(ctx->Check([&] { return verifier.Capture(db_.get()); }));
    R3_RETURN_IF_ERROR(ctx->Op("tpcd", "rdbms.UF1", [&] {
      return tpcd::RunUf1Rdbms(db_.get(), gen_.get(), uf);
    }));
    for (int q = 1; q <= tpcd::kNumQueries; ++q) {
      rdbms::QueryResult res;
      R3_RETURN_IF_ERROR(ctx->Op("tpcd", QueryLabel("rdbms", q), [&]() -> Status {
        R3_ASSIGN_OR_RETURN(res, queries_->RunQuery(q, params_[p]));
        return Status::OK();
      }));
      ctx->Check([&] {
        RecordAnswer(ctx, "rdbms", &answers_, p, q, std::move(res));
        return 0;
      });
    }
    R3_RETURN_IF_ERROR(ctx->Op("tpcd", "rdbms.UF2", [&] {
      return tpcd::RunUf2Rdbms(db_.get(), gen_.get(), uf);
    }));
    Status restored =
        ctx->Check([&] { return verifier.VerifyRestored(db_.get()); });
    if (!restored.ok()) ctx->Mismatch("rdbms UF1+UF2: " + restored.ToString());
    return Status::OK();
  }

  bool fresh_setup_per_unit() const override { return false; }
  int unit_cycle() const override { return kParamCycle; }
  rdbms::Database* db() override { return db_.get(); }

  /// Reference: the SAP Native SQL path (Release 2.2) on the same data.
  Status Verify(Ctx* ctx, bool corrupt) override {
    queries_.reset();
    db_.reset();
    tpcd::DbGen gen(sf_, seed_);
    MetricsRegistry metrics;
    SetupSample ignored;
    R3_ASSIGN_OR_RETURN(
        auto sys, BuildSap(&gen, appsys::Release::kRelease22, false, &metrics,
                           &ignored));
    sap::SapLoader loader(&sys->app, &gen);
    auto native = tpcd::MakeNativeQuerySet(&sys->app);
    const int64_t uf = tpcd::UpdateFunctionCount(gen);
    AnswerMap reference;
    for (int p = 0; p < sets_used_; ++p) {
      R3_RETURN_IF_ERROR(ReferencePass(
          native.get(), params_[p], p,
          [&] { return tpcd::RunUf1Sap(&loader, uf); },
          [&] { return tpcd::RunUf2Sap(&loader, uf); }, &reference));
    }
    if (corrupt) CorruptAnswers(&reference);
    for (const std::string& m :
         CompareAnswers("rdbms vs native reference", reference, answers_)) {
      ctx->Mismatch(m);
    }
    return Status::OK();
  }

 private:
  double sf_;
  uint64_t seed_;
  std::vector<tpcd::QueryParams> params_;
  std::unique_ptr<tpcd::DbGen> gen_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<rdbms::Database> db_;
  std::unique_ptr<tpcd::IQuerySet> queries_;
  int pass_ = 0;  ///< passes on the current system
  int sets_used_ = 0;
  AnswerMap answers_;
};

// ---------------------------------------------------------------------------
// tpcd_power_sap: Native SQL and Open SQL 2.2 on the SAP-mapped database.
// ---------------------------------------------------------------------------

class TpcdSap : public Workload {
 public:
  TpcdSap(double sf, uint64_t seed) : sf_(sf), seed_(seed) {
    for (int p = 0; p < kParamCycle; ++p) params_.push_back(ParamSet(sf, seed, p));
  }

  Status Setup(SetupSample* s) override {
    Reset();
    double t = WallSeconds();
    gen_ = std::make_unique<tpcd::DbGen>(sf_, seed_);
    metrics_ = std::make_unique<MetricsRegistry>();
    R3_ASSIGN_OR_RETURN(sys_, BuildSap(gen_.get(), appsys::Release::kRelease22,
                                       false, metrics_.get(), s));
    loader_ = std::make_unique<sap::SapLoader>(&sys_->app, gen_.get());
    paths_[0] = tpcd::MakeNativeQuerySet(&sys_->app);
    paths_[1] = tpcd::MakeOpen22QuerySet(&sys_->app);
    pass_ = 0;
    s->total_s = WallSeconds() - t;
    return Status::OK();
  }

  Status RunUnit(Ctx* ctx) override {
    int p = pass_++ % kParamCycle;
    sets_used_ = std::max(sets_used_, std::min(pass_, kParamCycle));
    const int64_t uf = tpcd::UpdateFunctionCount(*gen_);
    rdbms::QueryResult pass[2][tpcd::kNumQueries + 1];
    for (int path = 0; path < 2; ++path) {
      const char* name = kPathNames[path];
      R3_ASSIGN_OR_RETURN(Digest before,
                          ctx->Check([&] { return TakeDigest(db()); }));
      R3_RETURN_IF_ERROR(ctx->Op("tpcd", std::string(name) + ".UF1", [&] {
        return tpcd::RunUf1Sap(loader_.get(), uf);
      }));
      for (int q = 1; q <= tpcd::kNumQueries; ++q) {
        R3_RETURN_IF_ERROR(ctx->Op("tpcd", QueryLabel(name, q), [&]() -> Status {
          R3_ASSIGN_OR_RETURN(pass[path][q],
                              paths_[path]->RunQuery(q, params_[p]));
          return Status::OK();
        }));
      }
      R3_RETURN_IF_ERROR(ctx->Op("tpcd", std::string(name) + ".UF2", [&] {
        return tpcd::RunUf2Sap(loader_.get(), uf);
      }));
      R3_ASSIGN_OR_RETURN(Digest after,
                          ctx->Check([&] { return TakeDigest(db()); }));
      for (const std::string& m : CompareDigests(
               std::string(name) + " UF1+UF2 restore", before, after)) {
        ctx->Mismatch(m);
      }
    }
    ctx->Check([&] {
      for (int q = 1; q <= tpcd::kNumQueries; ++q) {
        std::string diff;
        if (!tpcd::ResultsEquivalent(pass[0][q], pass[1][q], OrderedOutput(q),
                                     &diff)) {
          ctx->Mismatch("native vs open22 Q" + std::to_string(q) + ": " + diff);
        }
        for (int path = 0; path < 2; ++path) {
          RecordAnswer(ctx, kPathNames[path], &answers_[path], p, q,
                       std::move(pass[path][q]));
        }
      }
      return 0;
    });
    return Status::OK();
  }

  bool fresh_setup_per_unit() const override { return false; }
  int unit_cycle() const override { return kParamCycle; }
  rdbms::Database* db() override { return &sys_->db; }

  /// Reference: the isolated RDBMS path on the same data.
  Status Verify(Ctx* ctx, bool corrupt) override {
    Reset();
    tpcd::DbGen gen(sf_, seed_);
    MetricsRegistry metrics;
    SetupSample ignored;
    R3_ASSIGN_OR_RETURN(auto db, BuildRdbms(&gen, &metrics, &ignored));
    auto rdbms_queries = tpcd::MakeRdbmsQuerySet(db.get());
    const int64_t uf = tpcd::UpdateFunctionCount(gen);
    AnswerMap reference;
    for (int p = 0; p < sets_used_; ++p) {
      R3_RETURN_IF_ERROR(ReferencePass(
          rdbms_queries.get(), params_[p], p,
          [&] { return tpcd::RunUf1Rdbms(db.get(), &gen, uf); },
          [&] { return tpcd::RunUf2Rdbms(db.get(), &gen, uf); }, &reference));
    }
    if (corrupt) CorruptAnswers(&reference);
    for (int path = 0; path < 2; ++path) {
      for (const std::string& m : CompareAnswers(
               std::string(kPathNames[path]) + " vs rdbms reference", reference,
               answers_[path])) {
        ctx->Mismatch(m);
      }
    }
    return Status::OK();
  }

 private:
  static constexpr const char* kPathNames[2] = {"native", "open22"};

  void Reset() {
    paths_[0].reset();
    paths_[1].reset();
    loader_.reset();
    sys_.reset();
  }

  double sf_;
  uint64_t seed_;
  std::vector<tpcd::QueryParams> params_;
  std::unique_ptr<tpcd::DbGen> gen_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<appsys::R3System> sys_;
  std::unique_ptr<sap::SapLoader> loader_;
  std::unique_ptr<tpcd::IQuerySet> paths_[2];
  int pass_ = 0;  ///< passes on the current system
  int sets_used_ = 0;
  AnswerMap answers_[2];
};

// ---------------------------------------------------------------------------
// batch_input_load: Table 3's load through batch input, from empty.
// ---------------------------------------------------------------------------

class BatchLoad : public Workload {
 public:
  BatchLoad(double sf, uint64_t seed) : sf_(sf), seed_(seed) {}

  Status Setup(SetupSample* s) override {
    loader_.reset();
    sys_.reset();
    double t = WallSeconds();
    // Generation: every record the load will enter.
    tpcd::DbGen gen(sf_, seed_);
    regions_ = gen.MakeRegions();
    nations_ = gen.MakeNations();
    suppliers_ = gen.MakeSuppliers();
    parts_ = gen.MakeParts();
    partsupps_ = gen.MakePartSupps();
    customers_ = gen.MakeCustomers();
    orders_.clear();
    R3_RETURN_IF_ERROR(gen.ForEachOrder([&](const tpcd::OrderRec& o) {
      orders_.push_back(o);
      return Status::OK();
    }));
    // An empty installation, as bench/table3_loading builds it, with WAL.
    gen_ = std::make_unique<tpcd::DbGen>(sf_, seed_);
    metrics_ = std::make_unique<MetricsRegistry>();
    R3_ASSIGN_OR_RETURN(sys_, BuildEmpty(metrics_.get()));
    R3_RETURN_IF_ERROR(sys_->db.EnableWal());
    loader_ = std::make_unique<sap::SapLoader>(&sys_->app, gen_.get());
    s->total_s = WallSeconds() - t;
    return Status::OK();
  }

  Status RunUnit(Ctx* ctx) override {
    sap::SapLoader* l = loader_.get();
    for (const auto& r : regions_) {
      R3_RETURN_IF_ERROR(
          ctx->Op("sap", "EnterMaster.Region", [&] { return l->EnterRegion(r); }));
    }
    for (const auto& n : nations_) {
      R3_RETURN_IF_ERROR(
          ctx->Op("sap", "EnterMaster.Nation", [&] { return l->EnterNation(n); }));
    }
    for (const auto& s : suppliers_) {
      R3_RETURN_IF_ERROR(ctx->Op("sap", "EnterMaster.Supplier",
                                 [&] { return l->EnterSupplier(s); }));
    }
    for (const auto& p : parts_) {
      R3_RETURN_IF_ERROR(
          ctx->Op("sap", "EnterMaster.Part", [&] { return l->EnterPart(p); }));
    }
    int64_t i = 0;
    for (const auto& ps : partsupps_) {
      R3_RETURN_IF_ERROR(ctx->Op("sap", "EnterMaster.PartSupp",
                                 [&] { return l->EnterPartSupp(ps, i % 4); }));
      ++i;
    }
    for (const auto& c : customers_) {
      R3_RETURN_IF_ERROR(ctx->Op("sap", "EnterMaster.Customer",
                                 [&] { return l->EnterCustomer(c); }));
    }
    std::vector<double> order_ms;
    order_ms.reserve(orders_.size());
    for (const auto& o : orders_) {
      R3_RETURN_IF_ERROR(
          ctx->Op("sap", "EnterOrder", [&] { return l->EnterOrder(o); }));
      order_ms.push_back(ctx->log->all_ms().back());
    }
    size_t tenth = order_ms.size() / 10;
    if (tenth > 0) {
      std::vector<double> first(order_ms.begin(), order_ms.begin() + tenth);
      std::vector<double> last(order_ms.end() - tenth, order_ms.end());
      growth_.push_back(Mean(last) / Mean(first));
    }
    int64_t failed_txns = sys_->app.batch_input()->stats().failed_transactions;
    if (failed_txns != 0) {
      ctx->log->Fail(failed_txns);
      ctx->Problem(std::to_string(failed_txns) + " failed batch-input transactions");
    }
    R3_ASSIGN_OR_RETURN(Digest d, ctx->Check([&] { return TakeDigest(db()); }));
    digests_.push_back(std::move(d));
    return Status::OK();
  }

  bool fresh_setup_per_unit() const override { return true; }
  rdbms::Database* db() override { return &sys_->db; }

  /// Reference: FastLoadAll of the same data into the same installation.
  Status Verify(Ctx* ctx, bool corrupt) override {
    loader_.reset();
    sys_.reset();
    tpcd::DbGen gen(sf_, seed_);
    MetricsRegistry metrics;
    R3_ASSIGN_OR_RETURN(auto sys, BuildEmpty(&metrics));
    sap::SapLoader loader(&sys->app, &gen);
    R3_RETURN_IF_ERROR(loader.FastLoadAll());
    R3_ASSIGN_OR_RETURN(Digest reference, TakeDigest(&sys->db));
    if (corrupt && !reference.empty()) reference.begin()->second.second ^= 1;
    for (size_t u = 0; u < digests_.size(); ++u) {
      for (const std::string& m : CompareDigests(
               "load " + std::to_string(u + 1) + " vs FastLoadAll", reference,
               digests_[u])) {
        ctx->Mismatch(m);
      }
    }
    return Status::OK();
  }

  void LayerMetrics(const OpLog& log,
                    std::map<std::string, double>* out) const override {
    auto it = log.by_kind().find("EnterOrder");
    if (it != log.by_kind().end()) (*out)["sap.enter_order_ms"] = Median(it->second);
    (*out)["sap.enter_master_ms"] = Median(log.WithPrefix("EnterMaster."));
    if (!growth_.empty()) (*out)["sap.order_latency_growth"] = growth_.back();
  }

  std::vector<std::string> Notes() const override {
    return {"WAL on: every batch-input commit forces one WAL flush, which "
            "writes all records appended since the previous flush as one "
            "group (one page write per started 8 KiB)."};
  }

 private:
  static Result<std::unique_ptr<appsys::R3System>> BuildEmpty(
      MetricsRegistry* metrics) {
    appsys::AppServerOptions opts;
    opts.release = appsys::Release::kRelease22;
    opts.table_buffer_bytes = 4u << 20;
    rdbms::DatabaseOptions db_opts;
    db_opts.metrics = metrics;
    auto sys = std::make_unique<appsys::R3System>(opts, db_opts);
    R3_RETURN_IF_ERROR(sys->app.Bootstrap());
    R3_RETURN_IF_ERROR(sap::CreateSapSchema(&sys->app));
    R3_RETURN_IF_ERROR(sap::CreateJoinViews(&sys->app));
    for (const char* table : {"MARA", "KNA1", "T005", "LFA1"}) {
      sys->app.buffer()->EnableFor(table);
    }
    return sys;
  }

  double sf_;
  uint64_t seed_;
  std::vector<tpcd::RegionRec> regions_;
  std::vector<tpcd::NationRec> nations_;
  std::vector<tpcd::SupplierRec> suppliers_;
  std::vector<tpcd::PartRec> parts_;
  std::vector<tpcd::PartSuppRec> partsupps_;
  std::vector<tpcd::CustomerRec> customers_;
  std::vector<tpcd::OrderRec> orders_;
  std::unique_ptr<tpcd::DbGen> gen_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<appsys::R3System> sys_;
  std::unique_ptr<sap::SapLoader> loader_;
  std::vector<double> growth_;
  std::vector<Digest> digests_;
};

// ---------------------------------------------------------------------------
// dialog_oltp: the multi-user dialog landscape (table12's setup).
// ---------------------------------------------------------------------------

class DialogOltp : public Workload {
 public:
  DialogOltp(double sf, uint64_t seed) : sf_(sf), seed_(seed) {}

  Status Setup(SetupSample* s) override {
    landscape_.reset();
    sys_.reset();
    double t = WallSeconds();
    tpcd::DbGen gen(sf_, seed_);
    metrics_ = std::make_unique<MetricsRegistry>();
    R3_ASSIGN_OR_RETURN(sys_, BuildSap(&gen, appsys::Release::kRelease30, true,
                                       metrics_.get(), s));
    appsys::dispatch::LandscapeOptions lopts;
    lopts.num_instances = kDialogServers;
    landscape_ = std::make_unique<SystemLandscape>(&sys_->db,
                                                   sys_->app.dictionary(), lopts);
    R3_RETURN_IF_ERROR(landscape_->Start());
    keys_ = sap::SapKeySpace{gen.NumOrders(), gen.NumParts(),
                             gen.NumCustomers(), gen.NumSuppliers()};
    sap::DialogWorkloadOptions wopts;
    wopts.users = kDialogUsers;
    wopts.duration_s = kDialogHorizonS;
    wopts.report_streams = 1;
    wopts.seed = seed_;
    plan_ = sap::GenerateDialogWorkload(keys_, wopts);
    s->total_s = WallSeconds() - t;
    return Status::OK();
  }

  Status RunUnit(Ctx* ctx) override {
    appsys::dispatch::ScriptRunner runner = sap::MakeSapScriptRunner(keys_);
    double script_s = 0;
    appsys::dispatch::ScriptRunner timed =
        [&](appsys::dispatch::AppServerInstance* inst,
            appsys::dispatch::WorkProcess* wp,
            const appsys::dispatch::PlannedRequest& req,
            appsys::dispatch::ScriptResult* result) {
          Status st = ctx->Op("sap", req.script.tcode,
                              [&] { return runner(inst, wp, req, result); });
          script_s += ctx->log->all_ms().back() / 1e3;
          return st;
        };
    double overhead_before = ctx->overhead_s;
    double start = WallSeconds();
    auto run = landscape_->Run(std::move(plan_), timed);
    double run_s = WallSeconds() - start - (ctx->overhead_s - overhead_before);
    R3_RETURN_IF_ERROR(run.status());
    const SystemLandscape::RunResult& r = run.value();
    outcomes_.push_back({r.offered, r.completed, r.rejected, r.script_errors,
                         run_s > 0 ? (run_s - script_s) / run_s : 0,
                         static_cast<double>(r.dialog_p95_us) / 1e3});
    return Status::OK();
  }

  bool fresh_setup_per_unit() const override { return true; }
  rdbms::Database* db() override { return &sys_->db; }

  /// Every offered request completes, none is rejected, no script fails.
  Status Verify(Ctx* ctx, bool corrupt) override {
    for (size_t u = 0; u < outcomes_.size(); ++u) {
      const Outcome& o = outcomes_[u];
      int64_t expected = o.offered + (corrupt ? 1 : 0);
      std::string run = "landscape run " + std::to_string(u + 1) + ": ";
      if (o.completed != expected) {
        ctx->Mismatch(run + std::to_string(o.completed) + " completed of " +
                      std::to_string(expected) + " expected");
      }
      if (o.rejected != 0) {
        ctx->log->Fail(o.rejected);
        ctx->Problem(run + std::to_string(o.rejected) + " rejected");
      }
      if (o.script_errors != 0) {
        ctx->log->Fail(o.script_errors);
        ctx->Problem(run + std::to_string(o.script_errors) + " script errors");
      }
    }
    return Status::OK();
  }

  void LayerMetrics(const OpLog& log,
                    std::map<std::string, double>* out) const override {
    (*out)["sap.script_ms"] = Median(log.all_ms());
    if (outcomes_.empty()) return;
    const Outcome& last = outcomes_.back();  // the traced landscape run
    (*out)["dispatch.loop_share"] = last.loop_share;
    (*out)["dispatch.completed"] = static_cast<double>(last.completed);
    (*out)["dispatch.rejected"] = static_cast<double>(last.rejected);
    (*out)["dispatch.dialog_p95_virtual_ms"] = last.p95_virtual_ms;
  }

  std::vector<std::string> Notes() const override {
    return {"landscape: " + std::to_string(kDialogServers) + " app servers, " +
            std::to_string(kDialogUsers) + " users, " +
            std::to_string(kDialogHorizonS) +
            " s virtual horizon, 1 report stream, Release 3.0 with KONV "
            "transparent"};
  }

 private:
  struct Outcome {
    int64_t offered, completed, rejected, script_errors;
    /// Share of the run's wall time outside the scripts: the event loop.
    double loop_share;
    double p95_virtual_ms;
  };

  double sf_;
  uint64_t seed_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<appsys::R3System> sys_;
  std::unique_ptr<SystemLandscape> landscape_;
  sap::SapKeySpace keys_;
  std::vector<appsys::dispatch::PlannedRequest> plan_;
  std::vector<Outcome> outcomes_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "tpcd_power_rdbms") {
    return std::make_unique<TpcdRdbms>(kTpcdSf, seed);
  }
  if (name == "tpcd_power_sap") {
    return std::make_unique<TpcdSap>(kSapSf, seed);
  }
  if (name == "batch_input_load") {
    return std::make_unique<BatchLoad>(kLoadSf, seed);
  }
  if (name == "dialog_oltp") {
    return std::make_unique<DialogOltp>(kDialogSf, seed);
  }
  return nullptr;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Layers the traced run reports self time for: the benchmark's spans
/// around calls into tpcd and sap, then the program's own categories.
const char* const kTraceLayers[] = {"tpcd", "sap",       "app",  "interface",
                                    "sql",  "optimizer", "exec", "io",
                                    "txn",  "wal"};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct UnitResult {
  double busy_s = 0;
  int64_t ops = 0;
  int64_t sim_us = 0;
};

/// Runs one unit; its busy time leaves out checks and trace reduction.
Status TimedUnit(Workload* w, Ctx* ctx, UnitResult* out) {
  double overhead = ctx->overhead_s;
  int64_t ops = ctx->log->attempted();
  int64_t sim = w->db()->clock()->NowMicros();
  double start = WallSeconds();
  Status st = w->RunUnit(ctx);
  out->busy_s = WallSeconds() - start - (ctx->overhead_s - overhead);
  out->ops = ctx->log->attempted() - ops;
  out->sim_us = w->db()->clock()->NowMicros() - sim;
  if (!st.ok()) {
    if (ctx->log->failed() == 0) ctx->log->Fail();
    ctx->Problem("unit aborted: " + st.ToString());
  }
  return st;
}

}  // namespace

bool OrderedOutput(int q) { return q == 1 || q == 4 || q == 12 || q == 13; }

std::vector<std::string> CompareAnswers(const std::string& what,
                                        const AnswerMap& reference,
                                        const AnswerMap& answers) {
  std::vector<std::string> out;
  for (const auto& [key, res] : answers) {
    std::string label = what + " set " + std::to_string(key.first) + " Q" +
                        std::to_string(key.second);
    auto ref = reference.find(key);
    if (ref == reference.end()) {
      out.push_back(label + ": no reference answer");
      continue;
    }
    std::string diff;
    if (!tpcd::ResultsEquivalent(ref->second, res, OrderedOutput(key.second),
                                 &diff)) {
      out.push_back(label + ": " + diff);
    }
  }
  return out;
}

void CorruptAnswers(AnswerMap* answers) {
  for (auto& [key, res] : *answers) {
    for (rdbms::Row& row : res.rows) {
      for (rdbms::Value& v : row) {
        if (!v.is_null() && rdbms::IsNumeric(v.type())) {
          v = rdbms::Value::Dbl(v.AsDouble() * 1.5 + 1);
          return;
        }
      }
    }
  }
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "tpcd_power_rdbms", "tpcd_power_sap", "batch_input_load", "dialog_oltp"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},          {"ops_per_s", "1/s"},
      {"op_p50_ms", "ms"},       {"item_geomean_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"setup.load_s", "s"},
        {"setup.analyze_s", "s"},
        {"tpcd.rdbms_query_ms", "ms"},
        {"tpcd.native_query_ms", "ms"},
        {"tpcd.open22_query_ms", "ms"},
        {"tpcd.uf_ms", "ms"},
        {"sap.enter_order_ms", "ms"},
        {"sap.enter_master_ms", "ms"},
        {"sap.order_latency_growth", "ratio"},
        {"sap.script_ms", "ms"},
        {"appsys.round_trips_per_op", "count/op"},
        {"appsys.rows_shipped_per_op", "count/op"},
        {"appsys.cursor_cache_hit_ratio", "ratio"},
        {"appsys.table_buffer_hit_ratio", "ratio"},
        {"dispatch.loop_share", "ratio"},
        {"dispatch.completed", "count"},
        {"dispatch.rejected", "count"},
        {"dispatch.dialog_p95_virtual_ms", "ms"},
        {"sql.statements_per_op", "count/op"},
        {"sql.hard_parse_ratio", "ratio"},
        {"optimizer.plans_per_op", "count/op"},
        {"optimizer.seq_scans_per_op", "count/op"},
        {"optimizer.index_scans_per_op", "count/op"},
        {"storage.logical_reads_per_op", "count/op"},
        {"storage.physical_reads_per_op", "count/op"},
        {"storage.hit_ratio", "ratio"},
        {"storage.page_writes_per_op", "count/op"},
        {"txn.commits_per_op", "count/op"},
        {"txn.rollbacks_per_op", "count/op"},
        {"wal.flushes_per_op", "count/op"},
        {"wal.bytes_per_op", "B/op"},
        {"sim.total_us", "us"},
        {"trace.overhead", "ratio"},
        {"trace.events", "count"},
        {"error_rate", "ratio"},
    };
    for (const char* layer : kTraceLayers) {
      v.push_back({std::string("self_wall_us_per_op.") + layer, "us/op"});
    }
    for (const char* layer : kTraceLayers) {
      v.push_back({std::string("self_sim_us_per_op.") + layer, "us/op"});
    }
    return v;
  }();
  return m;
}

Result<RunReport> RunBenchmark(const RunOptions& options) {
  std::unique_ptr<Workload> w = MakeWorkload(options.workload, options.seed);
  if (w == nullptr) {
    return Status::InvalidArgument("unknown workload: " + options.workload);
  }
  RunReport report;
  OpLog log;
  Ctx ctx;
  ctx.log = &log;
  ctx.problems = &report.problems;

  std::vector<SetupSample> setups;
  double setup_total_s = 0;
  auto setup = [&]() -> Status {
    SetupSample s;
    R3_RETURN_IF_ERROR(w->Setup(&s));
    setups.push_back(s);
    setup_total_s += s.total_s;
    return Status::OK();
  };
  auto more_setups = [&] {
    return setups.size() < kMinSetups || setup_total_s < kMinSetupSeconds;
  };
  auto check_same_sim = [&](const std::vector<int64_t>& sims,
                            const std::string& what) {
    for (int64_t sim : sims) {
      if (sim != sims.front()) {
        ctx.Mismatch("simulated totals differ between " + what);
        return;
      }
    }
  };

  std::map<std::string, double> values;
  OpLog untraced[2];
  std::vector<int64_t> sims;
  if (!options.trace) {
    double busy = 0;
    int units = 0;
    UnitResult cycle;           // the current input cycle's units so far
    std::vector<double> rates;  // ops per wall second of each whole cycle
    auto unit = [&]() {
      UnitResult u;
      Status st = TimedUnit(w.get(), &ctx, &u);
      busy += u.busy_s;
      cycle.busy_s += u.busy_s;
      cycle.ops += u.ops;
      if (++units % w->unit_cycle() == 0) {
        rates.push_back(Ratio(static_cast<double>(cycle.ops), cycle.busy_s));
        cycle = UnitResult();
      }
      if (w->fresh_setup_per_unit() || sims.empty()) sims.push_back(u.sim_us);
      return st;
    };
    Status st;
    if (w->fresh_setup_per_unit()) {
      while (st.ok() && (busy < options.seconds || sims.size() < 2)) {
        R3_RETURN_IF_ERROR(setup());
        st = unit();
      }
      while (more_setups()) R3_RETURN_IF_ERROR(setup());
      check_same_sim(sims, "two untraced runs");
    } else {
      while (more_setups()) R3_RETURN_IF_ERROR(setup());
      while (st.ok() &&
             (busy < options.seconds || units % w->unit_cycle() != 0)) {
        st = unit();
      }
    }
    // The median cycle, so one slow stretch of a shared host moves it less.
    // A whole cycle weighs each of the workload's inputs alike.
    values["ops_per_s"] = Median(rates);
    values["op_p50_ms"] = Median(log.all_ms());
    values["item_geomean_ms"] = log.GeoMeanOfKindMedians();
    values["peak_rss_mb"] = PeakRssMb();
    // Printed, not gated: see README.md on why the tail is left out of the
    // result's metrics.
    Tail tail = TailLatency(log.all_ms());
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "op_tail_ms %.6g at p%.3f of %lld ops (%lld beyond it); "
                  "measured window %.3f s",
                  tail.value, tail.percentile,
                  static_cast<long long>(tail.samples),
                  static_cast<long long>(tail.beyond), busy);
    report.notes.push_back(buf);
  } else {
    // Two untraced units on fresh systems, then the traced window on a
    // third: all three must charge identical simulated time.
    UnitResult a[2];
    for (int i = 0; i < 2; ++i) {
      R3_RETURN_IF_ERROR(setup());
      Ctx c = ctx;
      c.log = &untraced[i];
      // A failed unit is already booked as a failed op; carry on to report it.
      (void)TimedUnit(w.get(), &c, &a[i]);
      sims.push_back(a[i].sim_us);
    }
    R3_RETURN_IF_ERROR(setup());
    TraceOptions topts;
    topts.include_wall_time = true;
    topts.max_events = kMaxTraceEvents;
    Tracer tracer(w->db()->clock(), topts);
    TraceReducer reducer(&tracer, options.trace_out);
    ctx.tracer = &tracer;
    ctx.reducer = &reducer;
    CounterWindow counters(w->db()->metrics());
    ctx.counters = &counters;
    UnitResult first;
    Status st = TimedUnit(w.get(), &ctx, &first);
    sims.push_back(first.sim_us);
    double busy = first.busy_s;
    int units = 1;
    while (st.ok() && !w->fresh_setup_per_unit() &&
           (busy < options.seconds || units % w->unit_cycle() != 0)) {
      UnitResult u;
      st = TimedUnit(w.get(), &ctx, &u);
      busy += u.busy_s;
      ++units;
    }
    Status flushed = reducer.Flush();
    if (!flushed.ok()) ctx.Mismatch("trace reduction: " + flushed.ToString());
    Status drops = reducer.CheckNoDrops();
    if (!drops.ok()) ctx.Mismatch(drops.ToString());
    check_same_sim(sims, "traced and untraced runs");

    const double ops = static_cast<double>(std::max<int64_t>(1, log.attempted()));
    auto per_op = [&](const char* name) { return counters.Delta(name) / ops; };
    values["appsys.round_trips_per_op"] = per_op("appsys.connection.round_trips");
    values["appsys.rows_shipped_per_op"] = per_op("appsys.connection.rows_shipped");
    values["appsys.cursor_cache_hit_ratio"] =
        Ratio(counters.Delta("appsys.connection.cursor_cache_hits"),
              counters.Delta("appsys.connection.cursor_cache_hits") +
                  counters.Delta("appsys.connection.cursor_cache_misses"));
    values["appsys.table_buffer_hit_ratio"] =
        Ratio(counters.Delta("appsys.table_buffer.hits"),
              counters.Delta("appsys.table_buffer.probes"));
    values["sql.statements_per_op"] = per_op("rdbms.sql.statements");
    values["sql.hard_parse_ratio"] = Ratio(counters.Delta("rdbms.sql.hard_parses"),
                                           counters.Delta("rdbms.sql.statements"));
    values["optimizer.plans_per_op"] = per_op("rdbms.optimizer.plans");
    values["optimizer.seq_scans_per_op"] = per_op("rdbms.optimizer.seq_scans");
    values["optimizer.index_scans_per_op"] = per_op("rdbms.optimizer.index_scans");
    values["storage.logical_reads_per_op"] = per_op("rdbms.bufferpool.logical_reads");
    values["storage.physical_reads_per_op"] =
        per_op("rdbms.bufferpool.physical_reads");
    values["storage.hit_ratio"] =
        1.0 - Ratio(counters.Delta("rdbms.bufferpool.physical_reads"),
                    counters.Delta("rdbms.bufferpool.logical_reads"));
    values["storage.page_writes_per_op"] = per_op("rdbms.bufferpool.page_writes");
    values["txn.commits_per_op"] = per_op("rdbms.txn.commits");
    values["txn.rollbacks_per_op"] = per_op("rdbms.txn.rollbacks");
    values["wal.flushes_per_op"] = per_op("rdbms.wal.flushes");
    values["wal.bytes_per_op"] = per_op("rdbms.wal.flushed_bytes");
    for (const char* layer : kTraceLayers) {
      auto self = [&](const std::map<std::string, int64_t>& m) {
        auto it = m.find(layer);
        return it == m.end() ? 0.0 : static_cast<double>(it->second) / ops;
      };
      values[std::string("self_wall_us_per_op.") + layer] = self(reducer.self_wall_us());
      values[std::string("self_sim_us_per_op.") + layer] = self(reducer.self_sim_us());
    }
    auto kinds = [&](const std::string& infix) {
      std::vector<double> out;
      for (const auto& [kind, ms] : log.by_kind()) {
        if (kind.find(infix) != std::string::npos) {
          out.insert(out.end(), ms.begin(), ms.end());
        }
      }
      return out;
    };
    values["tpcd.rdbms_query_ms"] = Median(log.WithPrefix("rdbms.Q"));
    values["tpcd.native_query_ms"] = Median(log.WithPrefix("native.Q"));
    values["tpcd.open22_query_ms"] = Median(log.WithPrefix("open22.Q"));
    values["tpcd.uf_ms"] = Median(kinds(".UF"));
    values["sim.total_us"] = static_cast<double>(first.sim_us);
    double untraced_rate = Median({Ratio(static_cast<double>(a[0].ops), a[0].busy_s),
                                   Ratio(static_cast<double>(a[1].ops), a[1].busy_s)});
    values["trace.overhead"] =
        Ratio(Ratio(static_cast<double>(first.ops), first.busy_s), untraced_rate);
    values["trace.events"] = static_cast<double>(reducer.events());
    w->LayerMetrics(log, &values);
    ctx.tracer = nullptr;
    ctx.reducer = nullptr;
    ctx.counters = nullptr;
  }

  std::vector<double> total, load, analyze;
  for (const SetupSample& s : setups) {
    total.push_back(s.total_s);
    load.push_back(s.load_s);
    analyze.push_back(s.analyze_s);
  }
  values["setup_s"] = Median(total);
  values["setup.load_s"] = Median(load);
  values["setup.analyze_s"] = Median(analyze);

  // Answers are checked after the window, so building the reference costs
  // neither set-up time nor peak memory of the system under test.
  Status verified = w->Verify(&ctx, options.corrupt_reference);
  if (!verified.ok()) ctx.Mismatch("reference: " + verified.ToString());

  report.attempted = log.attempted() + untraced[0].attempted() + untraced[1].attempted();
  report.failed = log.failed() + untraced[0].failed() + untraced[1].failed();
  if (!report.problems.empty() && report.failed == 0) report.failed = 1;
  report.correct = report.failed == 0;
  values["error_rate"] = Ratio(static_cast<double>(report.failed),
                               static_cast<double>(report.attempted));

  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "sim.total_us %lld (first unit); %zu set-ups, median %.3f s "
                "(load %.3f s, later ANALYZE %.3f s)",
                static_cast<long long>(sims.empty() ? 0 : sims.front()),
                setups.size(), values["setup_s"], values["setup.load_s"],
                values["setup.analyze_s"]);
  report.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf), "error_rate %.6f (%lld failed of %lld ops)",
                values["error_rate"], static_cast<long long>(report.failed),
                static_cast<long long>(report.attempted));
  report.notes.push_back(buf);
  for (const std::string& note : w->Notes()) report.notes.push_back(note);

  for (const auto& [name, unit] :
       options.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    report.metrics.push_back({name, values[name], unit});
  }
  return report;
}

}  // namespace wallbench
}  // namespace r3
