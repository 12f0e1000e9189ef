#include "rdbms/txn/lock_manager.h"

#include <algorithm>
#include <chrono>

namespace r3 {
namespace rdbms {
namespace txn {
namespace {

// A wait this long means a scheduling bug, not a slow holder: real cycles
// are caught by the waits-for detector long before this fires.
constexpr auto kLockWaitTimeout = std::chrono::seconds(30);

// Least upper bound of two held modes on one resource (S+IX -> X).
LockMode Supremum(LockMode a, LockMode b) {
  if (a == b) return a;
  if (a == LockMode::kX || b == LockMode::kX) return LockMode::kX;
  if ((a == LockMode::kS && b == LockMode::kIX) ||
      (a == LockMode::kIX && b == LockMode::kS)) {
    return LockMode::kX;
  }
  if (a == LockMode::kS || b == LockMode::kS) return LockMode::kS;
  if (a == LockMode::kIX || b == LockMode::kIX) return LockMode::kIX;
  return LockMode::kIS;
}

// True when holding `held` already implies `want`.
bool Covers(LockMode held, LockMode want) {
  if (held == want) return true;
  switch (held) {
    case LockMode::kX:
      return true;
    case LockMode::kS:
      return want == LockMode::kIS;
    case LockMode::kIX:
      return want == LockMode::kIS;
    case LockMode::kIS:
      return false;
  }
  return false;
}

}  // namespace

const char* LockModeName(LockMode mode) {
  switch (mode) {
    case LockMode::kIS:
      return "IS";
    case LockMode::kIX:
      return "IX";
    case LockMode::kS:
      return "S";
    case LockMode::kX:
      return "X";
  }
  return "?";
}

bool LockCompatible(LockMode a, LockMode b) {
  if (a == LockMode::kX || b == LockMode::kX) return false;
  if (a == LockMode::kS && b == LockMode::kIX) return false;
  if (a == LockMode::kIX && b == LockMode::kS) return false;
  return true;
}

std::string LockKey::DebugString() const {
  if (table_id == 0) return "<root>";
  std::string s = "t" + std::to_string(table_id - 1);
  if (row != kWholeTable) s += "#" + std::to_string(row);
  return s;
}

LockManager::LockManager(MetricsRegistry* metrics, SimClock* clock)
    : clock_(clock) {
  MetricsRegistry* m = metrics != nullptr ? metrics : GlobalMetrics();
  m_lock_waits_ = m->GetCounter("rdbms.txn.lock_waits");
  m_deadlock_aborts_ = m->GetCounter("rdbms.txn.deadlock_aborts");
  m_wait_lock_ = m->GetCounter("rdbms.wait.lock_wait");
  m_wait_deadlock_ = m->GetCounter("rdbms.wait.deadlock_abort");
  h_wait_us_ = m->GetHistogram("rdbms.txn.lock_wait_wall_us");
}

void LockManager::RecordWaitEvent(WaitClass c, const LockKey& key) {
  if (clock_ == nullptr) return;
  if (WaitEventLog* wl = clock_->wait_log()) {
    // Times are 0 by design (see constructor comment).
    wl->Record(c, 0, 0, key.DebugString());
  }
}

bool LockManager::Grantable(const Resource& res, uint64_t txn_id,
                            LockMode mode) const {
  for (const Holder& h : res.holders) {
    if (h.txn_id == txn_id) continue;
    if (!LockCompatible(h.mode, mode)) return false;
  }
  return true;
}

uint64_t LockManager::DetectDeadlockLocked(const Resource& res,
                                           uint64_t txn_id, LockMode mode) {
  // Refresh this txn's outgoing edges: it waits for every conflicting
  // holder of the resource.
  auto& edges = waits_for_[txn_id];
  edges.clear();
  for (const Holder& h : res.holders) {
    if (h.txn_id != txn_id && !LockCompatible(h.mode, mode)) {
      edges.insert(h.txn_id);
    }
  }
  // DFS from txn_id over waits_for_; a path back to txn_id is a cycle.
  // Iterative, with the path kept explicit so the victim can be chosen
  // from exactly the cycle members.
  std::vector<uint64_t> path{txn_id};
  std::vector<std::unordered_set<uint64_t>::const_iterator> frontier;
  std::unordered_set<uint64_t> visited{txn_id};
  auto it0 = waits_for_.find(txn_id);
  if (it0 == waits_for_.end() || it0->second.empty()) return 0;
  frontier.push_back(it0->second.begin());
  while (!frontier.empty()) {
    uint64_t at = path.back();
    auto eit = waits_for_.find(at);
    if (eit == waits_for_.end() || frontier.back() == eit->second.end()) {
      path.pop_back();
      frontier.pop_back();
      continue;
    }
    uint64_t next = *frontier.back();
    ++frontier.back();
    if (next == txn_id) {
      // Cycle = current path. Victim: the youngest (highest id) member.
      // Every member is parked on this mutex's CV, so the choice cannot
      // depend on thread timing — deterministic across runs.
      uint64_t victim = *std::max_element(path.begin(), path.end());
      victims_.insert(victim);
      // Break the cycle now, not when the victim thread wakes: until then
      // another waiter's wake-up would find (and count) the same cycle.
      waits_for_.erase(victim);
      m_deadlock_aborts_->Increment();
      m_wait_deadlock_->Increment();
      if (clock_ != nullptr) {
        if (WaitEventLog* wl = clock_->wait_log()) {
          wl->Record(WaitClass::kDeadlockAbort, 0, 0,
                     "txn" + std::to_string(victim));
        }
      }
      return victim;
    }
    if (!visited.insert(next).second) continue;
    auto nit = waits_for_.find(next);
    if (nit == waits_for_.end() || nit->second.empty()) continue;
    path.push_back(next);
    frontier.push_back(nit->second.begin());
  }
  return 0;
}

Status LockManager::Acquire(uint64_t txn_id, LockKey key, LockMode mode) {
  std::unique_lock<std::mutex> lock(mu_);
  if (victims_.count(txn_id) != 0) {
    return Status::Aborted("transaction " + std::to_string(txn_id) +
                           " chosen as deadlock victim");
  }
  Resource& res = resources_[key];
  Holder* own = nullptr;
  for (Holder& h : res.holders) {
    if (h.txn_id == txn_id) {
      own = &h;
      break;
    }
  }
  if (own != nullptr && Covers(own->mode, mode)) return Status::OK();

  bool waited = false;
  auto wait_start = std::chrono::steady_clock::now();
  auto deadline = wait_start + kLockWaitTimeout;
  while (!Grantable(res, txn_id, mode)) {
    if (!waited) {
      waited = true;
      m_lock_waits_->Increment();
      m_wait_lock_->Increment();
      RecordWaitEvent(WaitClass::kLockWait, key);
    }
    uint64_t victim = DetectDeadlockLocked(res, txn_id, mode);
    if (victim != 0) {
      // Wake everyone: parked victims must notice their mark.
      cv_.notify_all();
      if (victim == txn_id) {
        waits_for_.erase(txn_id);
        h_wait_us_->Observe(std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::steady_clock::now() - wait_start)
                                .count());
        return Status::Aborted("transaction " + std::to_string(txn_id) +
                               " chosen as deadlock victim on " +
                               key.DebugString());
      }
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      waits_for_.erase(txn_id);
      return Status::Internal("lock wait timeout on '" + key.DebugString() +
                              "' (" + LockModeName(mode) + ")");
    }
    if (victims_.count(txn_id) != 0) {
      waits_for_.erase(txn_id);
      h_wait_us_->Observe(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - wait_start)
                              .count());
      return Status::Aborted("transaction " + std::to_string(txn_id) +
                             " chosen as deadlock victim");
    }
  }
  waits_for_.erase(txn_id);
  if (waited) {
    h_wait_us_->Observe(std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - wait_start)
                            .count());
  }
  if (own != nullptr) {
    // `own` may dangle if the map rehashed while we waited; re-find it.
    for (Holder& h : res.holders) {
      if (h.txn_id == txn_id) {
        h.mode = Supremum(h.mode, mode);
        return Status::OK();
      }
    }
  }
  res.holders.push_back(Holder{txn_id, mode});
  return Status::OK();
}

void LockManager::ReleaseAll(uint64_t txn_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, res] : resources_) {
      auto& hs = res.holders;
      hs.erase(std::remove_if(
                   hs.begin(), hs.end(),
                   [txn_id](const Holder& h) { return h.txn_id == txn_id; }),
               hs.end());
    }
    waits_for_.erase(txn_id);
    victims_.erase(txn_id);
  }
  cv_.notify_all();
}

size_t LockManager::HeldCount(uint64_t txn_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, res] : resources_) {
    for (const Holder& h : res.holders) {
      if (h.txn_id == txn_id) {
        ++n;
        break;
      }
    }
  }
  return n;
}

int64_t LockSchedule::GrantStart(const std::string& resource, LockMode mode,
                                 int64_t t) const {
  auto it = tails_.find(resource);
  if (it == tails_.end()) return t;
  int64_t earliest =
      mode == LockMode::kX ? it->second.last_any_end : it->second.last_x_end;
  return std::max(t, earliest);
}

void LockSchedule::Record(const std::string& resource, LockMode mode,
                          int64_t end) {
  Tail& tail = tails_[resource];
  tail.last_any_end = std::max(tail.last_any_end, end);
  if (mode == LockMode::kX) tail.last_x_end = std::max(tail.last_x_end, end);
}

}  // namespace txn
}  // namespace rdbms
}  // namespace r3
