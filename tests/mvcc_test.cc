// MVCC + row-lock tests: LockKey identity, the waits-for deadlock detector
// (two- and three-transaction cycles, deterministic youngest-victim choice),
// snapshot visibility over the version chain (insert/update/delete/ghost,
// own-transaction reads, abort reversal), transaction-end garbage
// collection, a TSan stress over concurrent chain readers/writers/GC, and
// an end-to-end Database check that an open cursor keeps its snapshot while
// autocommit DML changes the table underneath it.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "rdbms/db.h"
#include "rdbms/txn/lock_manager.h"
#include "rdbms/txn/mvcc.h"

namespace r3 {
namespace rdbms {
namespace {

using txn::LockKey;
using txn::LockManager;
using txn::LockMode;
using txn::MvccManager;
using txn::Snapshot;

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::r3::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (false)

// -- LockKey ------------------------------------------------------------------

TEST(LockKeyTest, IdentityAndHash) {
  EXPECT_TRUE(LockKey::Root() == LockKey::Root());
  EXPECT_FALSE(LockKey::Root() == LockKey::Table(0));
  EXPECT_TRUE(LockKey::Table(3) == LockKey::Table(3));
  EXPECT_FALSE(LockKey::Table(3) == LockKey::Table(4));
  EXPECT_FALSE(LockKey::Table(3) == LockKey::Row(3, 7));
  EXPECT_TRUE(LockKey::Row(3, 7) == LockKey::Row(3, 7));
  EXPECT_FALSE(LockKey::Row(3, 7) == LockKey::Row(3, 8));
  LockKey::Hash h;
  EXPECT_EQ(h(LockKey::Row(3, 7)), h(LockKey::Row(3, 7)));
  EXPECT_NE(h(LockKey::Row(3, 7)), h(LockKey::Row(3, 8)));
}

// -- Deadlock detection -------------------------------------------------------

// Runs the classic two-transaction cross acquisition and returns the id the
// detector chose as victim.
uint64_t RunTwoTxnDeadlock() {
  MetricsRegistry metrics;
  LockManager lm(&metrics);
  const LockKey a = LockKey::Row(1, 1);
  const LockKey b = LockKey::Row(1, 2);
  EXPECT_TRUE(lm.Acquire(1, a, LockMode::kX).ok());
  EXPECT_TRUE(lm.Acquire(2, b, LockMode::kX).ok());
  std::atomic<uint64_t> victim{0};
  auto cross = [&](uint64_t id, LockKey want) {
    Status st = lm.Acquire(id, want, LockMode::kX);
    if (st.code() == StatusCode::kAborted) {
      victim = id;
    } else {
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    // A real session would roll back; dropping the locks unblocks the peer.
    lm.ReleaseAll(id);
  };
  std::thread t1(cross, 1, b);
  std::thread t2(cross, 2, a);
  t1.join();
  t2.join();
  EXPECT_EQ(metrics.Value("rdbms.txn.deadlock_aborts"), 1);
  return victim.load();
}

TEST(DeadlockTest, TwoTxnCycleAbortsExactlyOne) {
  EXPECT_EQ(RunTwoTxnDeadlock(), 2u);
}

TEST(DeadlockTest, VictimIsDeterministicAcrossRuns) {
  // The detector must always sacrifice the youngest (highest-id) member of
  // the cycle, independent of thread scheduling.
  for (int run = 0; run < 5; ++run) {
    ASSERT_EQ(RunTwoTxnDeadlock(), 2u) << "run " << run;
  }
}

TEST(DeadlockTest, ThreeTxnCycleAbortsYoungest) {
  MetricsRegistry metrics;
  LockManager lm(&metrics);
  const LockKey r[3] = {LockKey::Row(1, 1), LockKey::Row(1, 2),
                        LockKey::Row(1, 3)};
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_OK(lm.Acquire(id, r[id - 1], LockMode::kX));
  }
  std::atomic<uint64_t> victim{0};
  std::atomic<int> aborted{0};
  std::vector<std::thread> threads;
  for (uint64_t id = 1; id <= 3; ++id) {
    threads.emplace_back([&, id] {
      // txn 1 wants r[1], txn 2 wants r[2], txn 3 wants r[0]: a 3-cycle.
      Status st = lm.Acquire(id, r[id % 3], LockMode::kX);
      if (st.code() == StatusCode::kAborted) {
        victim = id;
        aborted += 1;
      } else {
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      lm.ReleaseAll(id);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(aborted.load(), 1);
  EXPECT_EQ(victim.load(), 3u);
  EXPECT_EQ(metrics.Value("rdbms.txn.deadlock_aborts"), 1);
}

TEST(DeadlockTest, LockWaitMetricsAreRecorded) {
  MetricsRegistry metrics;
  LockManager lm(&metrics);
  const LockKey key = LockKey::Row(2, 5);
  ASSERT_OK(lm.Acquire(1, key, LockMode::kX));
  std::thread waiter([&] {
    ASSERT_OK(lm.Acquire(2, key, LockMode::kX));
    lm.ReleaseAll(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_EQ(metrics.Value("rdbms.txn.lock_waits"), 1);
  EXPECT_EQ(metrics.Value("rdbms.txn.deadlock_aborts"), 0);
}

// -- Snapshot visibility ------------------------------------------------------

constexpr uint32_t kFile = 9;

Rid MakeRid(uint32_t page, uint16_t slot) { return Rid{page, slot}; }

TEST(MvccVisibilityTest, InsertInvisibleUntilCommit) {
  MvccManager m;
  m.set_enabled(true);
  Rid rid = MakeRid(0, 0);
  m.BeginTxn(10);
  auto before = m.AcquireSnapshot();
  m.OnInsert(kFile, rid, 10);
  std::string alt;

  // A snapshot from before the writer began must not see the new row.
  EXPECT_EQ(m.Check(kFile, rid, *before, &alt),
            MvccManager::Visibility::kInvisible);
  // A concurrent snapshot taken while the writer is active: still invisible.
  auto during = m.AcquireSnapshot();
  EXPECT_EQ(m.Check(kFile, rid, *during, &alt),
            MvccManager::Visibility::kInvisible);
  // The writer's own statements see their insert.
  auto own = m.AcquireSnapshot(10);
  EXPECT_EQ(m.Check(kFile, rid, *own, &alt),
            MvccManager::Visibility::kCurrent);

  m.CommitTxn(10);
  auto after = m.AcquireSnapshot();
  EXPECT_EQ(m.Check(kFile, rid, *after, &alt),
            MvccManager::Visibility::kCurrent);
}

TEST(MvccVisibilityTest, UpdateServesOldVersionToOldSnapshots) {
  MvccManager m;
  m.set_enabled(true);
  Rid rid = MakeRid(1, 4);
  auto before = m.AcquireSnapshot();
  m.BeginTxn(11);
  m.OnUpdate(kFile, rid, 11, "old-image");
  std::string alt;

  // Pre-update snapshot reads the superseded image, not the heap row.
  EXPECT_EQ(m.Check(kFile, rid, *before, &alt),
            MvccManager::Visibility::kAltVersion);
  EXPECT_EQ(alt, "old-image");
  // The updater reads its own write.
  auto own = m.AcquireSnapshot(11);
  EXPECT_EQ(m.Check(kFile, rid, *own, &alt),
            MvccManager::Visibility::kCurrent);

  m.CommitTxn(11);
  // `before` still pins the old version after commit (snapshot isolation).
  EXPECT_EQ(m.Check(kFile, rid, *before, &alt),
            MvccManager::Visibility::kAltVersion);
  auto after = m.AcquireSnapshot();
  EXPECT_EQ(m.Check(kFile, rid, *after, &alt),
            MvccManager::Visibility::kCurrent);
}

TEST(MvccVisibilityTest, DeleteLeavesGhostForOldSnapshots) {
  MvccManager m;
  m.set_enabled(true);
  Rid rid = MakeRid(3, 2);
  auto before = m.AcquireSnapshot();
  m.BeginTxn(12);
  m.OnDelete(kFile, rid, 12, "ghost-image");
  m.CommitTxn(12);

  std::vector<std::pair<uint16_t, std::string>> ghosts;
  m.VisibleGhosts(kFile, 3, *before, &ghosts);
  ASSERT_EQ(ghosts.size(), 1u);
  EXPECT_EQ(ghosts[0].first, 2);
  EXPECT_EQ(ghosts[0].second, "ghost-image");

  // Post-delete snapshots observe the deletion: no ghost.
  auto after = m.AcquireSnapshot();
  ghosts.clear();
  m.VisibleGhosts(kFile, 3, *after, &ghosts);
  EXPECT_TRUE(ghosts.empty());
}

TEST(MvccVisibilityTest, GhostsSortBySlotWithinPage) {
  MvccManager m;
  m.set_enabled(true);
  auto before = m.AcquireSnapshot();
  m.BeginTxn(13);
  m.OnDelete(kFile, MakeRid(5, 7), 13, "s7");
  m.OnDelete(kFile, MakeRid(5, 1), 13, "s1");
  m.OnDelete(kFile, MakeRid(5, 4), 13, "s4");
  m.CommitTxn(13);
  std::vector<std::pair<uint16_t, std::string>> ghosts;
  m.VisibleGhosts(kFile, 5, *before, &ghosts);
  ASSERT_EQ(ghosts.size(), 3u);
  EXPECT_EQ(ghosts[0].first, 1);
  EXPECT_EQ(ghosts[1].first, 4);
  EXPECT_EQ(ghosts[2].first, 7);
}

TEST(MvccVisibilityTest, AbortRestoresPreviousState) {
  MvccManager m;
  m.set_enabled(true);
  Rid ins = MakeRid(0, 0);
  Rid upd = MakeRid(0, 1);
  Rid del = MakeRid(0, 2);
  m.BeginTxn(20);
  m.OnInsert(kFile, ins, 20);
  m.OnUpdate(kFile, upd, 20, "upd-pre");
  m.OnDelete(kFile, del, 20, "del-pre");
  EXPECT_EQ(m.live_entries(), 3u);
  m.AbortTxn(20);
  // Every version-map effect reverted: rows are plain heap rows again.
  EXPECT_EQ(m.live_entries(), 0u);
  std::string alt;
  auto snap = m.AcquireSnapshot();
  EXPECT_EQ(m.Check(kFile, upd, *snap, &alt),
            MvccManager::Visibility::kCurrent);
  std::vector<std::pair<uint16_t, std::string>> ghosts;
  m.VisibleGhosts(kFile, 0, *snap, &ghosts);
  EXPECT_TRUE(ghosts.empty());
}

// -- Garbage collection -------------------------------------------------------

TEST(MvccGcTest, CommitGcTrimsOnceNoSnapshotNeedsTheVersion) {
  MetricsRegistry metrics;
  MvccManager m(&metrics);
  m.set_enabled(true);
  Rid rid = MakeRid(2, 0);

  auto old_snap = m.AcquireSnapshot();
  m.BeginTxn(30);
  m.OnUpdate(kFile, rid, 30, "v1");
  m.CommitTxn(30);
  // Pinned by old_snap: the chain must survive this commit's GC pass.
  EXPECT_EQ(m.live_entries(), 1u);
  std::string alt;
  EXPECT_EQ(m.Check(kFile, rid, *old_snap, &alt),
            MvccManager::Visibility::kAltVersion);

  old_snap.reset();  // horizon advances
  EXPECT_GT(m.GarbageCollect(), 0u);
  EXPECT_EQ(m.live_entries(), 0u);
  EXPECT_GT(metrics.Value("rdbms.mvcc.versions_trimmed"), 0);
  EXPECT_GT(metrics.Value("rdbms.mvcc.entries_erased"), 0);
}

TEST(MvccGcTest, GhostsDieWhenDeletionIsUniversallyVisible) {
  MvccManager m;
  m.set_enabled(true);
  Rid rid = MakeRid(4, 4);
  auto old_snap = m.AcquireSnapshot();
  m.BeginTxn(31);
  m.OnDelete(kFile, rid, 31, "ghost");
  m.CommitTxn(31);
  EXPECT_EQ(m.live_entries(), 1u);  // ghost pinned by old_snap
  old_snap.reset();
  m.GarbageCollect();
  EXPECT_EQ(m.live_entries(), 0u);
  auto snap = m.AcquireSnapshot();
  std::vector<std::pair<uint16_t, std::string>> ghosts;
  m.VisibleGhosts(kFile, 4, *snap, &ghosts);
  EXPECT_TRUE(ghosts.empty());
}

TEST(MvccGcTest, LongUpdateChainsShrinkToOneEntry) {
  MvccManager m;
  m.set_enabled(true);
  Rid rid = MakeRid(6, 0);
  for (uint64_t t = 40; t < 50; ++t) {
    m.BeginTxn(t);
    m.OnUpdate(kFile, rid, t, "v" + std::to_string(t));
    m.CommitTxn(t);
  }
  // No snapshot pinned anything: each commit's GC pass kept the map small.
  m.GarbageCollect();
  EXPECT_EQ(m.live_entries(), 0u);
}

// -- Concurrency stress (the TSan meat) ---------------------------------------

TEST(MvccStressTest, ConcurrentWritersReadersAndGc) {
  MvccManager m;
  m.set_enabled(true);
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kIters = 200;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&m, w] {
      for (int i = 0; i < kIters; ++i) {
        uint64_t id = static_cast<uint64_t>(w) * 1000000 + i + 1;
        Rid rid = MakeRid(static_cast<uint32_t>(w), static_cast<uint16_t>(i % 32));
        m.BeginTxn(id);
        m.OnUpdate(kFile, rid, id, "img");
        if (i % 16 == 7) {
          m.OnDelete(kFile, MakeRid(static_cast<uint32_t>(w) + 100,
                                    static_cast<uint16_t>(i % 32)),
                     id, "ghost");
        }
        if (i % 5 == 0) {
          m.AbortTxn(id);
        } else {
          m.CommitTxn(id);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&m, &stop, r] {
      std::string alt;
      std::vector<std::pair<uint16_t, std::string>> ghosts;
      uint64_t spins = 0;
      // do-while: every reader completes at least one full pass even when
      // the writers finish before this thread is first scheduled (fast
      // machines under parallel ctest load), so the spin count assertion
      // below cannot flake on scheduling.
      do {
        auto snap = m.AcquireSnapshot();
        for (uint32_t w = 0; w < kWriters; ++w) {
          for (uint16_t s = 0; s < 32; ++s) {
            (void)m.Check(kFile, MakeRid(w, s), *snap, &alt);
          }
          ghosts.clear();
          m.VisibleGhosts(kFile, w + 100, *snap, &ghosts);
        }
        ++spins;
        (void)r;
      } while (!stop.load(std::memory_order_acquire));
      EXPECT_GT(spins, 0u);
    });
  }
  std::thread gc([&m, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      m.GarbageCollect();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  gc.join();

  // All writers finished and nothing pins history: GC drains the map.
  m.GarbageCollect();
  EXPECT_EQ(m.live_txns(), 0u);
  EXPECT_EQ(m.live_entries(), 0u);
}

// -- Database integration -----------------------------------------------------

std::vector<int64_t> CollectInts(Database* db, Cursor* cur) {
  std::vector<int64_t> out;
  RowBatch batch(8);
  (void)db;
  while (true) {
    auto ok = cur->FetchBatch(&batch);
    EXPECT_TRUE(ok.ok()) << ok.status().ToString();
    if (!ok.ok() || !ok.value()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      out.push_back(batch.row(i)[0].int_value());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MvccDatabaseTest, OpenCursorKeepsItsSnapshotAcrossAutocommitDml) {
  Database db;
  ASSERT_OK(db.Execute("CREATE TABLE T (A INTEGER)", {}, nullptr, nullptr));
  ASSERT_OK(db.EnableWal());  // turns MVCC on
  for (int64_t v = 1; v <= 3; ++v) {
    ASSERT_OK(db.Execute("INSERT INTO T (A) VALUES (" + std::to_string(v) + ")",
                         {}, nullptr, nullptr));
  }

  auto stmt = db.Prepare("SELECT A FROM T");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto cur = db.OpenCursor(stmt.value(), {});
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();

  // Mutate the table *after* the cursor pinned its snapshot.
  ASSERT_OK(db.Execute("DELETE FROM T WHERE A = 2", {}, nullptr, nullptr));
  ASSERT_OK(db.Execute("INSERT INTO T (A) VALUES (4)", {}, nullptr, nullptr));

  // The cursor sees the world as of its open: 2 alive (ghost), 4 absent.
  std::vector<int64_t> rows = CollectInts(&db, &cur.value());
  EXPECT_EQ(rows, (std::vector<int64_t>{1, 2, 3}));
  ASSERT_OK(cur.value().Close());

  // A fresh statement sees the new reality.
  auto now = db.Query("SELECT A FROM T");
  ASSERT_TRUE(now.ok()) << now.status().ToString();
  std::vector<int64_t> latest;
  for (const Row& r : now.value().rows) latest.push_back(r[0].int_value());
  std::sort(latest.begin(), latest.end());
  EXPECT_EQ(latest, (std::vector<int64_t>{1, 3, 4}));
}

TEST(MvccDatabaseTest, CursorSubqueriesReadUnderTheCursorSnapshot) {
  DatabaseOptions opts;
  opts.batch_rows = 1;
  Database db(nullptr, opts);
  ASSERT_OK(db.Execute("CREATE TABLE O (OK INTEGER)", {}, nullptr, nullptr));
  // No index on IK: the subquery scans the heap, where the deleted rows
  // live on as ghosts only a snapshot older than the delete resolves.
  ASSERT_OK(db.Execute("CREATE TABLE I (IK INTEGER)", {}, nullptr, nullptr));
  ASSERT_OK(db.EnableWal());  // turns MVCC on
  for (int64_t v = 1; v <= 5; ++v) {
    const std::string n = std::to_string(v);
    ASSERT_OK(db.Execute("INSERT INTO O (OK) VALUES (" + n + ")", {}, nullptr,
                         nullptr));
    ASSERT_OK(db.Execute("INSERT INTO I (IK) VALUES (" + n + ")", {}, nullptr,
                         nullptr));
  }

  const std::string sql =
      "SELECT OK FROM O WHERE EXISTS (SELECT IK FROM I WHERE IK = OK)";
  auto stmt = db.Prepare(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto cur = db.OpenCursor(stmt.value(), {});
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  RowBatch batch(1);
  auto first = cur.value().FetchBatch(&batch);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value());
  EXPECT_EQ(batch.row(0)[0].int_value(), 1);

  ASSERT_OK(db.Execute("DELETE FROM I", {}, nullptr, nullptr));

  // Each later EXISTS probe runs under the cursor's snapshot, not the
  // current state: every inner row still matches.
  std::vector<int64_t> rest = CollectInts(&db, &cur.value());
  EXPECT_EQ(rest, (std::vector<int64_t>{2, 3, 4, 5}));
  ASSERT_OK(cur.value().Close());

  auto now = db.Query(sql);
  ASSERT_TRUE(now.ok()) << now.status().ToString();
  EXPECT_TRUE(now.value().rows.empty());
}

TEST(MvccDatabaseTest, TxnRollbackRevertsVersionMap) {
  Database db;
  ASSERT_OK(db.Execute("CREATE TABLE T (A INTEGER)", {}, nullptr, nullptr));
  ASSERT_OK(db.EnableWal());
  ASSERT_OK(db.Execute("INSERT INTO T (A) VALUES (1)", {}, nullptr, nullptr));

  ASSERT_OK(db.Begin());
  ASSERT_OK(db.Execute("INSERT INTO T (A) VALUES (2)", {}, nullptr, nullptr));
  ASSERT_OK(db.Execute("DELETE FROM T WHERE A = 1", {}, nullptr, nullptr));
  ASSERT_OK(db.Rollback());

  auto rows = db.Query("SELECT A FROM T");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().rows.size(), 1u);
  EXPECT_EQ(rows.value().rows[0][0].int_value(), 1);
  // The version map fully unwound with the transaction.
  db.txn_manager()->mvcc()->GarbageCollect();
  EXPECT_EQ(db.txn_manager()->mvcc()->live_entries(), 0u);
  EXPECT_EQ(db.txn_manager()->mvcc()->live_txns(), 0u);
}

// -- Index vs. sequential read-path symmetry (DESIGN.md §9) -------------------

namespace symmetry {

/// T(A, B) with 2000 fat rows A=1..2000 and an index on A, stats analyzed
/// so an equality probe on A plans as an index scan (asserted): the filler
/// column pushes the heap to enough pages that the probe beats the scan.
void BuildIndexedTable(Database* db) {
  ASSERT_OK(db->Execute("CREATE TABLE T (A INTEGER, B CHAR(200))", {}, nullptr,
                        nullptr));
  ASSERT_OK(db->Execute("CREATE INDEX T_A ON T (A)", {}, nullptr, nullptr));
  ASSERT_OK(db->EnableWal());  // turns MVCC on
  const std::string filler(180, 'x');
  for (int64_t v = 1; v <= 2000; ++v) {
    ASSERT_OK(db->Execute("INSERT INTO T (A, B) VALUES (" + std::to_string(v) +
                              ", '" + filler + "')",
                          {}, nullptr, nullptr));
  }
  ASSERT_OK(db->Analyze("T"));
  auto plan = db->Explain("SELECT A FROM T WHERE A = 2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NE(plan.value().find("IndexScan"), std::string::npos) << plan.value();
}

}  // namespace symmetry

TEST(MvccIndexAsymmetryTest, EagerIndexDeletesMissGhostsByDefault) {
  MetricsRegistry metrics;
  DatabaseOptions opts;
  opts.batch_rows = 1;
  opts.metrics = &metrics;
  Database db(nullptr, opts);
  symmetry::BuildIndexedTable(&db);

  auto seq_stmt = db.Prepare("SELECT A FROM T");
  auto idx_stmt = db.Prepare("SELECT A FROM T WHERE A = 2");
  ASSERT_TRUE(seq_stmt.ok() && idx_stmt.ok());
  auto seq_cur = db.OpenCursor(seq_stmt.value(), {});
  auto idx_cur = db.OpenCursor(idx_stmt.value(), {});
  ASSERT_TRUE(seq_cur.ok() && idx_cur.ok());

  ASSERT_OK(db.Execute("DELETE FROM T WHERE A = 2", {}, nullptr, nullptr));

  // The sequential scan resolves the ghost for its older snapshot...
  std::vector<int64_t> seq_rows = CollectInts(&db, &seq_cur.value());
  EXPECT_EQ(seq_rows.size(), 2000u);
  EXPECT_TRUE(std::binary_search(seq_rows.begin(), seq_rows.end(), 2));
  // ...but the index probe lost its B-tree entry with the delete: the
  // documented asymmetry.
  std::vector<int64_t> idx_rows = CollectInts(&db, &idx_cur.value());
  EXPECT_TRUE(idx_rows.empty());

  // The same holds mid-scan: an index range cursor one batch in...
  const std::string range_sql = "SELECT A FROM T WHERE A < 12";
  auto plan = db.Explain(range_sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NE(plan.value().find("IndexScan"), std::string::npos) << plan.value();
  auto range_stmt = db.Prepare(range_sql);
  ASSERT_TRUE(range_stmt.ok()) << range_stmt.status().ToString();
  auto range_cur = db.OpenCursor(range_stmt.value(), {});
  ASSERT_TRUE(range_cur.ok()) << range_cur.status().ToString();
  RowBatch batch(1);
  auto first = range_cur.value().FetchBatch(&batch);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.row(0)[0].int_value(), 1);
  Counter* alt_reads = metrics.GetCounter("rdbms.mvcc.alt_version_reads");
  const int64_t alt_reads_before = alt_reads->Value();

  // ...then a delete removes later keys of its range from the index.
  ASSERT_OK(db.Execute("DELETE FROM T WHERE A BETWEEN 5 AND 10", {}, nullptr,
                       nullptr));

  // The cursor finishes on the surviving entries with no error, and no
  // deleted key resurfaces through an older version.
  std::vector<int64_t> rest = CollectInts(&db, &range_cur.value());
  EXPECT_EQ(rest, (std::vector<int64_t>{3, 4, 11}));
  EXPECT_EQ(alt_reads->Value(), alt_reads_before);
}

TEST(MvccIndexAsymmetryTest, RangeCursorResumesAfterDeleteOfPassedKey) {
  DatabaseOptions opts;
  opts.batch_rows = 1;
  Database db(nullptr, opts);
  symmetry::BuildIndexedTable(&db);

  const std::string range_sql = "SELECT A FROM T WHERE A < 12";
  auto plan = db.Explain(range_sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NE(plan.value().find("IndexScan"), std::string::npos) << plan.value();
  auto stmt = db.Prepare(range_sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto cur = db.OpenCursor(stmt.value(), {});
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  RowBatch batch(1);
  auto first = cur.value().FetchBatch(&batch);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value());
  EXPECT_EQ(batch.row(0)[0].int_value(), 1);

  // Deleting the key the cursor already returned shifts its B-tree leaf
  // left; the cursor must still resume at the next surviving key.
  ASSERT_OK(db.Execute("DELETE FROM T WHERE A = 1", {}, nullptr, nullptr));

  std::vector<int64_t> rest = CollectInts(&db, &cur.value());
  EXPECT_EQ(rest, (std::vector<int64_t>{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
