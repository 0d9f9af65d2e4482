// chaos_harness — deterministic fault-injection driver for xia_server.
//
// Runs seeded chaos rounds against an in-process server under
// retrying-client load: bounded failpoint bursts (server.accept /
// server.read / server.write), torn-frame stall clients, and a
// kill-then-reopen storage cycle per round (drop the engine without
// Close, reopen, compare state fingerprints). After each round the
// faults are disarmed and the harness checks its invariants:
//
//   I1  every logical client call converged to a real server reply
//       (zero give-ups — bursts are bounded, retries must absorb them);
//   I2  the obs ledger reconciles (client.retries >= failpoint trips);
//   I3  no worker stays pinned (a post-chaos probe answers within the
//       per-attempt budget, stalled clients are reaped on schedule);
//   I4  post-crash recovery reproduces the pre-kill fingerprint.
//
// The whole schedule is a pure function of --seed. Exit code 0 means
// every invariant held in every round; any violation prints and exits 1.
//
// Usage:
//   chaos_harness [--seed=N] [--rounds=N] [--clients=N] [--ops=N]
//                 [--data-dir=PATH] [--stats-json=PATH]
//
// Defaults are CI-smoke sized (~2s). The nightly configuration runs
// hundreds of ops across many rounds; the invariants do not change.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
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

using namespace xia;

namespace {

struct HarnessConfig {
  uint64_t seed = 42;
  int rounds = 2;
  int clients = 3;
  int ops = 12;
  std::string data_dir;  // Empty: a scratch dir under /tmp, removed.
  std::string stats_json;
};

int g_violations = 0;

void Check(bool ok, const std::string& what) {
  if (ok) return;
  ++g_violations;
  std::cerr << "INVARIANT VIOLATED: " << what << "\n";
}

RetryPolicy ChaosPolicy(uint64_t seed) {
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_ms = 2;
  policy.max_backoff_ms = 30;
  policy.jitter = 0.2;
  policy.jitter_seed = seed;
  policy.attempt_budget_ms = 2000;
  return policy;
}

/// One seeded round of connection-level chaos (I1-I3).
void ConnectionChaosRound(const HarnessConfig& config, uint64_t seed) {
  fp::DisarmAll();
  server::SharedState shared;
  Status populated =
      PopulateXMark(&shared.db, "xmark", 2, XMarkParams(), 42);
  Check(populated.ok(), "xmark population: " + populated.ToString());

  server::ServerOptions options;
  options.tcp_port = 0;
  options.workers = 4;
  options.max_connections = config.clients + 5;
  options.io_timeout_ms = 150;
  server::Server srv(&shared, options);
  Status started = srv.Start();
  Check(started.ok(), "server start: " + started.ToString());
  if (!started.ok()) return;

  obs::Snapshot before = obs::Registry().TakeSnapshot();

  const std::vector<std::string> kVerbs = {
      "ping", "health", "ready", "stats", "show catalog", "show workload"};
  std::vector<uint64_t> giveups(static_cast<size_t>(config.clients), 0);
  std::vector<int> failed(static_cast<size_t>(config.clients), 0);
  std::atomic<bool> chaos_done{false};
  std::vector<std::thread> load;
  load.reserve(static_cast<size_t>(config.clients));
  for (int c = 0; c < config.clients; ++c) {
    load.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 31 + static_cast<uint64_t>(c));
      server::RetryingClient client(srv.port(), ChaosPolicy(seed + c));
      client.set_prologue({"workload xmark"});
      for (int op = 0; op < config.ops; ++op) {
        Result<std::string> reply =
            client.Call(kVerbs[rng() % kVerbs.size()]);
        if (!reply.ok()) ++failed[static_cast<size_t>(c)];
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 + static_cast<int>(rng() % 4)));
      }
      // Stay connected (light pings) until all faults are disarmed, so
      // any trip that lands on this connection — including one that
      // would otherwise hit our closing EOF — is paid for by a retry
      // we can count. Without this the I2 ledger below races with
      // client shutdown.
      while (!chaos_done.load(std::memory_order_acquire)) {
        if (!client.Call("ping").ok()) ++failed[static_cast<size_t>(c)];
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      if (!client.Call("ping").ok()) ++failed[static_cast<size_t>(c)];
      giveups[static_cast<size_t>(c)] = client.giveups();
      client.Close();
    });
  }

  // Bounded fault bursts.
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

  for (std::thread& t : load) t.join();
  chaos.join();
  fp::DisarmAll();

  // A torn-frame staller: half a frame, then silence. The server must
  // reap it on the io-timeout schedule instead of pinning a worker.
  // It runs after DisarmAll so an armed server.read fault cannot be
  // consumed by a connection that never pays a retry (which would
  // break the I2 ledger below).
  {
    Result<server::BlockingClient> raw =
        server::BlockingClient::ConnectTcp(srv.port());
    Check(raw.ok(), "staller connect: " + raw.status().ToString());
    if (raw.ok()) {
      std::string torn = server::EncodeFrame(std::string(64, 'x'));
      (void)raw->SendRaw(torn.substr(0, 6));
      // The reap shows up as EOF on our side, within ~2 timeout ticks.
      (void)raw->SetIoTimeoutMillis(4 * options.io_timeout_ms);
      Result<std::string> reply = raw->Receive();
      Check(!reply.ok(), "stalled client must be dropped, not answered");
    }
  }

  // I3: post-chaos the server answers promptly.
  server::RetryingClient probe(srv.port(), ChaosPolicy(seed));
  Result<std::string> ping = probe.Call("ping");
  Check(ping.ok(), "post-chaos probe: " +
                       (ping.ok() ? "" : ping.status().ToString()));
  probe.Close();

  uint64_t total_giveups = 0;
  int total_failed = 0;
  for (int c = 0; c < config.clients; ++c) {
    total_giveups += giveups[static_cast<size_t>(c)];
    total_failed += failed[static_cast<size_t>(c)];
  }
  Check(total_giveups == 0, "I1: give-ups under bounded faults (" +
                                std::to_string(total_giveups) + ")");
  Check(total_failed == 0, "I1: unconverged calls (" +
                               std::to_string(total_failed) + ")");

  obs::Snapshot after = obs::Registry().TakeSnapshot();
  uint64_t trips = (after.counter("failpoint.server.read.trips") -
                    before.counter("failpoint.server.read.trips")) +
                   (after.counter("failpoint.server.write.trips") -
                    before.counter("failpoint.server.write.trips")) +
                   (after.counter("failpoint.server.accept.trips") -
                    before.counter("failpoint.server.accept.trips"));
  uint64_t retries = after.counter("client.retries") -
                     before.counter("client.retries");
  Check(retries >= trips,
        "I2: ledger (" + std::to_string(retries) + " retries < " +
            std::to_string(trips) + " trips)");
  Check(after.counter("server.timeouts") >
            before.counter("server.timeouts"),
        "I3: the stalled client must be counted in server.timeouts");

  std::cout << "  round seed=" << seed << ": " << trips << " trips, "
            << retries << " retries, " << total_giveups << " giveups, "
            << (after.counter("server.timeouts") -
                before.counter("server.timeouts"))
            << " stall timeouts\n";

  srv.RequestStop();
  srv.Wait();
}

/// One kill-then-reopen storage cycle (I4), with a WAL fault injected
/// and healed along the way.
void CrashRecoveryRound(const std::string& db_dir, uint64_t seed) {
  namespace fs = std::filesystem;
  fp::DisarmAll();
  storage::StorageOptions no_sync;
  no_sync.sync = false;

  auto open_into = [&](server::SharedState* shared) -> bool {
    Result<std::unique_ptr<storage::StorageEngine>> opened =
        storage::StorageEngine::Open(
            db_dir, &shared->db, &shared->catalog, /*pool=*/nullptr,
            shared->default_options.cost_model.storage, no_sync);
    Check(opened.ok(), "storage open: " + opened.status().ToString());
    if (!opened.ok()) return false;
    shared->engine = std::move(*opened);
    return true;
  };

  fs::path xml = fs::path(db_dir).parent_path() / "chaos_doc.xml";
  {
    std::ofstream file(xml);
    file << "<site><item><price>" << (seed % 97)
         << "</price></item></site>";
  }

  std::string fingerprint;
  {
    server::SharedState shared;
    if (!open_into(&shared)) return;
    server::ServerOptions options;
    options.tcp_port = 0;
    server::Server srv(&shared, options);
    if (!srv.Start().ok()) return;
    server::RetryingClient client(srv.port(), ChaosPolicy(seed));

    {
      fp::FailSpec spec;
      spec.max_trips = 1;
      fp::ScopedFailpoint armed("storage.wal.append", spec);
      Result<std::string> refused =
          client.Call("load docs " + xml.string());
      Check(refused.ok() &&
                refused->find("loaded 1 document") == std::string::npos,
            "injected wal.append fault must refuse the load");
    }
    Result<std::string> healed = client.Call("db checkpoint");
    Check(healed.ok() &&
              healed->find("checkpointed") != std::string::npos,
          "checkpoint must heal the poisoned WAL");
    Result<std::string> loaded = client.Call("load docs " + xml.string());
    Check(loaded.ok() &&
              loaded->find("loaded 1 document") != std::string::npos,
          "post-heal load must succeed");
    Result<std::string> analyzed = client.Call("analyze docs");
    Check(analyzed.ok() &&
              analyzed->find("statistics rebuilt") != std::string::npos,
          "post-heal analyze must succeed");

    client.Close();
    srv.RequestStop();
    srv.Wait();
    fingerprint = storage::StorageEngine::StateFingerprint(shared.db,
                                                           shared.catalog);
    // Kill: drop the engine without Close().
  }
  {
    server::SharedState shared;
    if (!open_into(&shared)) return;
    std::string recovered = storage::StorageEngine::StateFingerprint(
        shared.db, shared.catalog);
    Check(recovered == fingerprint,
          "I4: recovered fingerprint mismatch after kill");
    std::cout << "  recovery seed=" << seed << ": fingerprint "
              << (recovered == fingerprint ? "match" : "MISMATCH") << "\n";
  }
  fs::remove(xml);
}

}  // namespace

int main(int argc, char** argv) {
  HarnessConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const std::string& flag) {
      return arg.substr(flag.size());
    };
    if (arg.rfind("--seed=", 0) == 0) {
      config.seed = std::strtoull(value("--seed=").c_str(), nullptr, 10);
    } else if (arg.rfind("--rounds=", 0) == 0) {
      config.rounds = std::atoi(value("--rounds=").c_str());
    } else if (arg.rfind("--clients=", 0) == 0) {
      config.clients = std::atoi(value("--clients=").c_str());
    } else if (arg.rfind("--ops=", 0) == 0) {
      config.ops = std::atoi(value("--ops=").c_str());
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      config.data_dir = value("--data-dir=");
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      config.stats_json = value("--stats-json=");
    } else {
      std::cerr << "unknown flag " << arg << " (see the file header)\n";
      return 2;
    }
  }

  namespace fs = std::filesystem;
  fs::path scratch;
  if (config.data_dir.empty()) {
    scratch = fs::temp_directory_path() / "xia_chaos_harness";
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    config.data_dir = (scratch / "db").string();
  }

  std::cout << "chaos_harness: seed=" << config.seed
            << " rounds=" << config.rounds
            << " clients=" << config.clients << " ops=" << config.ops
            << "\n";
  for (int round = 0; round < config.rounds; ++round) {
    uint64_t seed = config.seed + static_cast<uint64_t>(round) * 1000;
    ConnectionChaosRound(config, seed);
    // A fresh db dir per recovery cycle keeps rounds independent (and
    // the schedule a pure function of the seed).
    std::string db_dir =
        config.data_dir + "_r" + std::to_string(round);
    fs::remove_all(db_dir);
    CrashRecoveryRound(db_dir, seed);
    fs::remove_all(db_dir);
  }
  fp::DisarmAll();

  if (!config.stats_json.empty()) {
    if (obs::Registry().WriteJsonFile(config.stats_json)) {
      std::cout << "obs snapshot written to " << config.stats_json << "\n";
    } else {
      std::cerr << "failed to write " << config.stats_json << "\n";
      return 2;
    }
  }
  if (!scratch.empty()) fs::remove_all(scratch);

  if (g_violations > 0) {
    std::cerr << "chaos_harness: " << g_violations
              << " invariant violation(s)\n";
    return 1;
  }
  std::cout << "chaos_harness: all invariants held\n";
  return 0;
}
