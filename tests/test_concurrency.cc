// Concurrent serving smoke test: reader threads issue (cached) queries
// while a writer mutates the catalog with Insert and PutPeriodTable.
// Snapshot isolation must make every observed result equal to the
// query's answer over *some* published catalog state — no torn reads,
// no mixed schemas, no crashes.  Run under TSan/ASan in CI; the
// assertions here are linearizability checks that hold on any schedule.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "middleware/temporal_db.h"

namespace periodk {
namespace {

TEST(ConcurrencyTest, ReadersObservePrefixConsistentInsertCounts) {
  TemporalDB db(TimeDomain{0, 1000});
  ASSERT_TRUE(
      db.CreatePeriodTable("t", {"v", "ts", "te"}, "ts", "te").ok());

  constexpr int kInserts = 300;
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 150;

  // started/completed bracket every insert: a query that begins after
  // insert i completed must see at least i+1 rows, and can never see
  // more rows than inserts started.
  std::atomic<int> started{0};
  std::atomic<int> completed{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (int i = 0; i < kInserts; ++i) {
      started.fetch_add(1);
      Status status = db.Insert(
          "t", {Value::Int(i), Value::Int(0), Value::Int(100)});
      if (!status.ok()) {
        failed.store(true);
        return;
      }
      completed.fetch_add(1);
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Alternate a plain aggregate with a snapshot (SEQ VT) statement
      // so both the direct and the rewritten serving paths run hot
      // against the plan cache while it is being invalidated.
      const std::string plain = "SELECT count(*) AS c FROM t";
      const std::string seq =
          "SEQ VT AS OF 50 (SELECT count(*) AS c FROM t)";
      for (int q = 0; q < kQueriesPerReader; ++q) {
        int floor = completed.load();
        auto result = db.Query(q % 2 == 0 ? plain : seq, db.options());
        int ceiling = started.load();
        if (!result.ok()) {
          ADD_FAILURE() << "reader " << r << ": " << result.status().ToString();
          failed.store(true);
          return;
        }
        ASSERT_EQ(result->size(), 1u);
        int64_t n = result->rows()[0][0].AsInt();
        // Every row is valid at time 50, so both statements count the
        // whole table of the pinned snapshot.
        EXPECT_GE(n, floor) << "reader " << r << " query " << q;
        EXPECT_LE(n, ceiling) << "reader " << r << " query " << q;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  auto final_count = db.Query("SELECT count(*) AS c FROM t");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->rows()[0][0].AsInt(), kInserts);
}

TEST(ConcurrencyTest, ReadersNeverObserveTornTableReplacements) {
  TemporalDB db(TimeDomain{0, 1000});
  // Each published version v of "u" holds exactly v rows, every row
  // carrying the value v: any snapshot therefore satisfies
  // count == min == max.  A reader that ever mixes two versions (a torn
  // catalog read) breaks that invariant.
  auto make_version = [](int64_t v) {
    Relation rel(Schema::FromNames({"v", "ts", "te"}));
    for (int64_t i = 0; i < v; ++i) {
      rel.AddRow({Value::Int(v), Value::Int(0), Value::Int(100)});
    }
    return rel;
  };
  ASSERT_TRUE(
      db.PutPeriodTable("u", make_version(1), "ts", "te").ok());

  constexpr int kVersions = 200;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int64_t v = 2; v <= kVersions; ++v) {
      ASSERT_TRUE(
          db.PutPeriodTable("u", make_version(v), "ts", "te").ok());
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const std::string sql =
          "SELECT count(*) AS c, min(v) AS mn, max(v) AS mx FROM u";
      int iters = 0;
      while (!done.load() || iters < 50) {
        ++iters;
        auto result = db.Query(sql);
        if (!result.ok()) {
          ADD_FAILURE() << "reader " << r << ": " << result.status().ToString();
          return;
        }
        ASSERT_EQ(result->size(), 1u);
        const Row& row = result->rows()[0];
        int64_t count = row[0].AsInt();
        ASSERT_GE(count, 1) << "reader " << r;
        ASSERT_LE(count, kVersions) << "reader " << r;
        EXPECT_EQ(row[1].AsInt(), count) << "reader " << r << ": torn read";
        EXPECT_EQ(row[2].AsInt(), count) << "reader " << r << ": torn read";
        if (iters > 5000) break;  // bound runtime on slow schedules
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
}

// Readers racing whole-cache flushes and per-table invalidations: the
// writer interleaves inserts into "t" with creating unrelated tables
// (which flushes every cached plan).  Version-tagged entries mean a
// plan bound against one catalog state is never served against
// another, whatever the interleaving.  The correctness signal is the
// same count invariant.
TEST(ConcurrencyTest, PlanCacheFlushRacesStayConsistent) {
  TemporalDB db(TimeDomain{0, 1000});
  ASSERT_TRUE(
      db.CreatePeriodTable("t", {"v", "ts", "te"}, "ts", "te").ok());

  std::atomic<int> started{0};
  std::atomic<int> completed{0};
  constexpr int kMutations = 150;

  std::thread writer([&] {
    for (int i = 0; i < kMutations; ++i) {
      started.fetch_add(1);
      ASSERT_TRUE(
          db.Insert("t", {Value::Int(i), Value::Int(0), Value::Int(100)})
              .ok());
      completed.fetch_add(1);
      if (i % 2 == 0) {
        ASSERT_TRUE(db.CreateTable(StrCat("u", i), {"x"}).ok());
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int q = 0; q < 200; ++q) {
        int floor = completed.load();
        auto result = db.Query("SELECT count(*) AS c FROM t");
        int ceiling = started.load();
        ASSERT_TRUE(result.ok());
        int64_t n = result->rows()[0][0].AsInt();
        EXPECT_GE(n, floor);
        EXPECT_LE(n, ceiling);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
}

// Differential index maintenance under contention: reader threads issue
// indexed timeslices (both the SQL AS-OF route and the Timeslice entry
// point) while a writer streams inserts, compacting inline every 32 of
// them.  Each insert publishes relation + delta or folded index in one
// exclusive section, so the snapshot count invariant (floor from
// completed inserts, ceiling from started ones) must hold on every
// schedule; afterwards the index must agree with the scan path.
TEST(ConcurrencyTest, IndexedReadsRaceStreamingWritesAndCompaction) {
  TemporalDB db(TimeDomain{0, 1000});
  ASSERT_TRUE(
      db.CreatePeriodTable("t", {"v", "ts", "te"}, "ts", "te").ok());
  // Warm the index so every append maintains it differentially instead
  // of just dropping the slot.  (The Timeslice entry point, not an
  // aggregate query: a timeslice above SplitAggregate is not indexable.)
  ASSERT_TRUE(db.Timeslice("t", 50).ok());
  ASSERT_NE(db.catalog().GetIndex("t"), nullptr);

  constexpr int kInserts = 200;
  constexpr int kReaders = 3;
  std::atomic<int> started{0};
  std::atomic<int> completed{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (int i = 0; i < kInserts; ++i) {
      started.fetch_add(1);
      Status status =
          db.Insert("t", {Value::Int(i), Value::Int(0), Value::Int(100)});
      if (!status.ok()) {
        failed.store(true);
        return;
      }
      completed.fetch_add(1);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const std::string seq = "SEQ VT AS OF 50 (SELECT v FROM t)";
      for (int q = 0; q < 120; ++q) {
        int floor = completed.load();
        int64_t n;
        if (q % 2 == 0) {
          auto result = db.Query(seq);
          int ceiling = started.load();
          if (!result.ok()) {
            ADD_FAILURE() << "reader " << r << ": "
                          << result.status().ToString();
            failed.store(true);
            return;
          }
          n = static_cast<int64_t>(result->size());
          EXPECT_LE(n, ceiling) << "reader " << r << " query " << q;
        } else {
          auto slice = db.Timeslice("t", 50);
          int ceiling = started.load();
          if (!slice.ok()) {
            ADD_FAILURE() << "reader " << r << ": "
                          << slice.status().ToString();
            failed.store(true);
            return;
          }
          n = static_cast<int64_t>(slice->size());
          EXPECT_LE(n, ceiling) << "reader " << r << " slice " << q;
        }
        // Every inserted row is valid at time 50, so any snapshot's
        // timeslice counts exactly its inserts — delta layer included.
        EXPECT_GE(n, floor) << "reader " << r << " query " << q;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  auto indexed = db.Timeslice("t", 50);
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(indexed->size(), static_cast<size_t>(kInserts));
  RewriteOptions scan_opts = db.options();
  scan_opts.use_timeline_index = false;
  auto scanned =
      db.Query("SEQ VT AS OF 50 (SELECT v FROM t)", scan_opts);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->size(), indexed->size());
  IndexMaintenanceStats stats = db.index_maintenance_stats();
  EXPECT_GT(stats.delta_publishes, 0) << stats.ToString();
  EXPECT_GT(stats.compactions, 0) << stats.ToString();
}

}  // namespace
}  // namespace periodk
