// Deterministic chaos: seeded fault schedules against a live server
// under retrying-client load. Each round arms bounded failpoint bursts
// (server.accept / server.read / server.write) while client threads run
// idempotent traffic, then disarms everything and asserts convergence:
//
//   - every logical call eventually returned a real server reply (the
//     retry layer absorbed every injected fault — zero give-ups, since
//     each burst trips a bounded number of times, well inside the retry
//     budget);
//   - the obs ledger reconciles: client.retries grew at least as much
//     as the failpoints tripped (each trip costs some client exactly
//     one re-attempt, discovered no later than the convergence pass);
//   - the server itself survives — a post-chaos ping answers within the
//     per-attempt budget, so no worker stayed pinned.
//
// The schedule is a pure function of the seed (seeded client op mix,
// seeded fault bursts, deterministic retry jitter), run for three
// distinct seeds. A separate case crashes a WAL-backed server mid-life
// (drop the engine without Close) with a wal.append fault injected and
// healed along the way, and proves the recovered fingerprint matches.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/retrying_client.h"
#include "server/server.h"
#include "server/session.h"
#include "storage/storage_engine.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace server {
namespace {

RetryPolicy ChaosPolicy(uint64_t seed) {
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_ms = 2;
  policy.max_backoff_ms = 30;
  policy.jitter = 0.2;
  policy.jitter_seed = seed;
  policy.attempt_budget_ms = 2000;  // No call may hang, ever.
  return policy;
}

/// One seeded chaos round; every invariant violation is a gtest failure.
void RunChaosRound(uint64_t seed) {
  fp::DisarmAll();
  SharedState shared;
  ASSERT_TRUE(PopulateXMark(&shared.db, "xmark", 2, XMarkParams(), 42).ok());

  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 4;
  options.max_connections = 8;
  options.max_inflight_advises = 2;
  options.io_timeout_ms = 200;
  Server srv(&shared, options);
  ASSERT_TRUE(srv.Start().ok());

  obs::Snapshot before = obs::Registry().TakeSnapshot();

  // Client load: idempotent verbs only, so every injected fault is
  // retryable and zero give-ups is a hard invariant.
  constexpr int kClients = 3;
  constexpr int kOps = 15;
  const std::vector<std::string> kVerbs = {
      "ping", "health", "ready", "stats", "show catalog",
      "run /site/regions", "show workload"};
  std::vector<uint64_t> giveups(kClients, 0);
  std::vector<uint64_t> retries(kClients, 0);
  std::vector<int> failed_calls(kClients, 0);
  std::atomic<bool> chaos_done{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 31 + static_cast<uint64_t>(c));
      RetryingClient client(srv.port(), ChaosPolicy(seed + c));
      client.set_prologue({"workload xmark"});
      for (int op = 0; op < kOps; ++op) {
        const std::string& verb = kVerbs[rng() % kVerbs.size()];
        Result<std::string> reply = client.Call(verb);
        if (!reply.ok()) ++failed_calls[c];
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 + static_cast<int>(rng() % 4)));
      }
      // Stay connected (light pings) until every fault is disarmed, so
      // a trip that lands on this connection — including one that would
      // otherwise hit our closing EOF — is paid for by a counted retry;
      // closing while faults are armed races the I2 ledger below.
      while (!chaos_done.load(std::memory_order_acquire)) {
        if (!client.Call("ping").ok()) ++failed_calls[c];
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      if (!client.Call("ping").ok()) ++failed_calls[c];
      giveups[c] = client.giveups();
      retries[c] = client.retries();
      client.Close();
    });
  }

  // Fault schedule: bounded bursts, each tripping 1-2 times then going
  // quiet — so the total damage is finite and retries must absorb it.
  std::thread chaos([&] {
    std::mt19937_64 rng(seed);
    const char* kTargets[] = {"server.read", "server.write",
                              "server.accept"};
    for (int burst = 0; burst < 6; ++burst) {
      fp::FailSpec spec;
      spec.code = StatusCode::kInternal;
      spec.max_trips = 1 + static_cast<int>(rng() % 2);
      fp::Arm(kTargets[rng() % 3], spec);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(5 + static_cast<int>(rng() % 15)));
    }
    fp::DisarmAll();
    chaos_done.store(true, std::memory_order_release);
  });

  for (std::thread& t : clients) t.join();
  chaos.join();
  fp::DisarmAll();

  // Convergence: faults are gone, so a fresh call must succeed fast.
  RetryingClient probe(srv.port(), ChaosPolicy(seed));
  Result<std::string> ping = probe.Call("ping");
  ASSERT_TRUE(ping.ok()) << "post-chaos ping: " << ping.status().ToString();
  EXPECT_EQ(ClassifyResponse(*ping), ResponseKind::kOk);
  Result<std::string> healthy = probe.Call("health");
  ASSERT_TRUE(healthy.ok());
  probe.Close();

  uint64_t total_giveups = 0;
  uint64_t total_retries = 0;
  int total_failed = 0;
  for (int c = 0; c < kClients; ++c) {
    total_giveups += giveups[c];
    total_retries += retries[c];
    total_failed += failed_calls[c];
  }
  EXPECT_EQ(total_giveups, 0u)
      << "seed " << seed << ": bounded faults must be absorbed by retries";
  EXPECT_EQ(total_failed, 0)
      << "seed " << seed << ": every idempotent call must converge to a "
      << "real reply";

  // Ledger reconciliation: each failpoint trip dropped one connection
  // (or refused one accept), which some retrying client had to pay for
  // with at least one re-attempt — discovered at latest by its next op.
  obs::Snapshot after = obs::Registry().TakeSnapshot();
  uint64_t trips = (after.counter("failpoint.server.read.trips") -
                    before.counter("failpoint.server.read.trips")) +
                   (after.counter("failpoint.server.write.trips") -
                    before.counter("failpoint.server.write.trips")) +
                   (after.counter("failpoint.server.accept.trips") -
                    before.counter("failpoint.server.accept.trips"));
  EXPECT_GT(trips, 0u) << "seed " << seed
                       << ": the schedule should actually inject faults";
  EXPECT_GE(after.counter("client.retries") - before.counter("client.retries"),
            trips)
      << "seed " << seed << ": every trip must surface as a client retry";
  EXPECT_EQ(after.counter("client.giveups"),
            before.counter("client.giveups"));

  srv.RequestStop();
  srv.Wait();
  EXPECT_EQ(srv.active_connections(), 0);
}

TEST(ChaosTest, Seed7) { RunChaosRound(7); }
TEST(ChaosTest, Seed21) { RunChaosRound(21); }
TEST(ChaosTest, Seed42) { RunChaosRound(42); }

// ---------------------------------------------------------------------
// Crash-recovery under injected WAL faults, driven over the wire.

TEST(ChaosTest, KillThenReopenRecoversFingerprintDespiteWalFault) {
  namespace fs = std::filesystem;
  fs::path scratch = fs::temp_directory_path() / "xia_chaos_recovery";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  fs::path xml = scratch / "doc.xml";
  {
    std::ofstream file(xml);
    file << "<site><item><price>7</price></item></site>";
  }
  const std::string db_dir = (scratch / "db").string();
  storage::StorageOptions no_sync;
  no_sync.sync = false;

  auto open_into = [&](SharedState* shared) {
    Result<std::unique_ptr<storage::StorageEngine>> opened =
        storage::StorageEngine::Open(
            db_dir, &shared->db, &shared->catalog, /*pool=*/nullptr,
            shared->default_options.cost_model.storage, no_sync);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    shared->engine = std::move(*opened);
  };

  std::string fingerprint;
  {
    SharedState shared;
    open_into(&shared);
    ServerOptions options;
    options.tcp_port = 0;
    Server srv(&shared, options);
    ASSERT_TRUE(srv.Start().ok());
    RetryingClient client(srv.port(), ChaosPolicy(42));

    // Injected WAL-append failure: the load is refused and the WAL
    // poisons itself (it cannot trust its tail).
    {
      fp::FailSpec spec;
      spec.max_trips = 1;
      fp::ScopedFailpoint armed("storage.wal.append", spec);
      Result<std::string> refused =
          client.Call("load docs " + xml.string());
      ASSERT_TRUE(refused.ok()) << refused.status().ToString();
      EXPECT_EQ(refused->find("loaded 1 document"), std::string::npos)
          << *refused;
    }
    // Heal: a checkpoint rewrites the page file and resets the WAL.
    Result<std::string> healed = client.Call("db checkpoint");
    ASSERT_TRUE(healed.ok());
    EXPECT_NE(healed->find("checkpointed"), std::string::npos) << *healed;

    // Now the mutations succeed and are WAL-logged.
    Result<std::string> loaded = client.Call("load docs " + xml.string());
    ASSERT_TRUE(loaded.ok());
    EXPECT_NE(loaded->find("loaded 1 document"), std::string::npos)
        << *loaded;
    Result<std::string> analyzed = client.Call("analyze docs");
    ASSERT_TRUE(analyzed.ok());
    EXPECT_NE(analyzed->find("statistics rebuilt"), std::string::npos);

    client.Close();
    srv.RequestStop();
    srv.Wait();
    fingerprint =
        storage::StorageEngine::StateFingerprint(shared.db, shared.catalog);
    // Kill: the engine is dropped without Close() — no final checkpoint;
    // recovery has only the page file + WAL to work from.
  }
  {
    SharedState shared;
    open_into(&shared);
    EXPECT_TRUE(shared.engine->recovery().opened_existing);
    EXPECT_EQ(
        storage::StorageEngine::StateFingerprint(shared.db, shared.catalog),
        fingerprint)
        << "post-crash recovery must reproduce the pre-kill state";
    ASSERT_NE(shared.db.GetCollection("docs"), nullptr);
  }
  fs::remove_all(scratch);
}

}  // namespace
}  // namespace server
}  // namespace xia
