// xia_server — the advisor as a service.
//
// Server mode (default): bind a unix socket or loopback TCP port, serve
// the advisor-shell command set (docs/PROTOCOL.md) to concurrent
// clients, exit cleanly on SIGTERM/SIGINT with an optional final
// xia::obs snapshot:
//
//   xia_server --socket /tmp/xia.sock --preload xmark:8
//              --stats-json /tmp/xia_obs.json
//
// Client mode (--connect / --connect-port): a netcat-style scripted
// session — read command lines from stdin, frame them, print each
// response payload. CI's server-smoke job drives every verb this way:
//
//   xia_server --connect /tmp/xia.sock < docs/server_smoke_script.txt
//
// Flags:
//   --socket PATH               listen on a unix socket (server mode)
//   --port N                    listen on loopback TCP (0 = ephemeral)
//   --workers N                 connection-handler threads (default 8)
//   --max-connections N         connection admission bound (default 8)
//   --max-inflight-advises N    advise admission bound (default 2)
//   --io-timeout-ms N           per-connection I/O deadline: drop clients
//                               stalled mid-frame for N ms, bound each
//                               response write by 4N ms (default 30000;
//                               0 disables)
//   --idle-timeout-ms N         reap connections idle between requests
//                               for N ms (default 0 = never)
//   --time-limit-ms N           default advise budget (anytime search)
//   --preload xmark[:docs]|tpox generate + analyze data before serving
//                               (repeatable: one collection set each)
//   --data-dir PATH             persistent storage directory: recover
//                               the previous run's state on startup
//                               (skipping --preload regeneration when
//                               state exists), WAL-log load/insert/
//                               delete/update/analyze/materialize,
//                               checkpoint once per gen/loadcoll and
//                               for all preloads, and checkpoint on
//                               clean shutdown
//   --capture [capacity]        arm workload capture from startup
//   --failpoint SPEC            arm fault injection (repeatable; the
//                               XIA_FAILPOINTS env var is also honored)
//   --stats-json PATH           write the final obs snapshot on shutdown
//   --connect PATH              client mode over a unix socket
//   --connect-port N            client mode over loopback TCP

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/storage_engine.h"

using namespace xia;

namespace {

int RunClient(const std::string& socket_path, int port) {
  Result<server::BlockingClient> connected =
      socket_path.empty() ? server::BlockingClient::ConnectTcp(port)
                          : server::BlockingClient::ConnectUnix(socket_path);
  if (!connected.ok()) {
    std::cerr << connected.status().ToString() << "\n";
    return 1;
  }
  server::BlockingClient client = std::move(*connected);
  std::string line;
  int protocol_errors = 0;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    Result<std::string> reply = client.Call(line);
    if (!reply.ok()) {
      std::cerr << reply.status().ToString() << "\n";
      return 1;
    }
    std::cout << "----- " << line << "\n" << *reply << "\n";
    if (server::ClassifyResponse(*reply) ==
        server::ResponseKind::kMalformed) {
      ++protocol_errors;
    }
    std::istringstream parsed(line);
    std::string verb;
    parsed >> verb;
    if (verb == "quit" || verb == "exit") break;
  }
  if (protocol_errors > 0) {
    std::cerr << protocol_errors << " malformed responses\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions options;
  // The binary (unlike the embeddable Server, whose timeouts default
  // off) assumes real clients on real networks: stall protection on.
  options.io_timeout_ms = 30000;
  std::vector<std::string> preloads;
  std::string data_dir;
  std::string stats_json;
  std::string connect_path;
  int connect_port = 0;
  bool client_mode = false;
  std::optional<size_t> capture;  // Capacity, when --capture is given.

  Status env_status = fp::ArmFromEnv();
  if (!env_status.ok()) {
    std::cerr << "XIA_FAILPOINTS: " << env_status.ToString() << "\n";
    return 1;
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      options.unix_socket_path = next("--socket");
    } else if (arg == "--port") {
      options.tcp_port = std::atoi(next("--port"));
    } else if (arg == "--workers") {
      options.workers = std::atoi(next("--workers"));
    } else if (arg == "--max-connections") {
      options.max_connections = std::atoi(next("--max-connections"));
    } else if (arg == "--max-inflight-advises") {
      options.max_inflight_advises =
          std::atoi(next("--max-inflight-advises"));
    } else if (arg == "--io-timeout-ms") {
      options.io_timeout_ms = std::atoll(next("--io-timeout-ms"));
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms = std::atoll(next("--idle-timeout-ms"));
    } else if (arg == "--time-limit-ms") {
      options.default_budget_ms = std::atoll(next("--time-limit-ms"));
    } else if (arg == "--preload") {
      preloads.push_back(next("--preload"));
    } else if (arg == "--data-dir") {
      data_dir = next("--data-dir");
    } else if (arg == "--capture") {
      std::optional<size_t> capacity =
          i + 1 < argc ? server::ParseCaptureCapacity(argv[i + 1])
                       : std::nullopt;
      if (capacity.has_value()) ++i;
      capture = capacity.value_or(server::kDefaultCaptureCapacity);
    } else if (arg == "--failpoint") {
      Status status = fp::ArmFromSpec(next("--failpoint"));
      if (!status.ok()) {
        std::cerr << "--failpoint: " << status.ToString() << "\n";
        return 1;
      }
    } else if (arg == "--stats-json") {
      stats_json = next("--stats-json");
    } else if (arg == "--connect") {
      client_mode = true;
      connect_path = next("--connect");
    } else if (arg == "--connect-port") {
      client_mode = true;
      connect_port = std::atoi(next("--connect-port"));
    } else {
      std::cerr << "unknown flag '" << arg << "' (see the header comment of "
                << "src/server/server_main.cc)\n";
      return 1;
    }
  }

  // Both modes write to sockets whose peer can vanish mid-write: a dead
  // peer must be a return value, never a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  if (client_mode) return RunClient(connect_path, connect_port);

  if (options.unix_socket_path.empty() && options.tcp_port == 0) {
    std::cerr << "server mode needs --socket PATH or --port N\n";
    return 1;
  }

  // Handle shutdown signals via sigwait below — block them before any
  // thread spawns so workers inherit the mask.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  server::SharedState shared;
  if (capture.has_value()) shared.ArmCapture(*capture);
  // Start serving BEFORE recovery/preload, gated not-ready: `health`
  // and `ready` answer immediately (they bypass the dispatcher and its
  // locks) while real verbs block on the writer mutex and the exclusive
  // state lock held for the duration of recovery. Orchestrators see a
  // live process whose readiness flips exactly when the data is
  // consistent.
  server::Server srv(&shared, options);
  srv.SetReady(false);
  Status started = srv.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }
  if (!options.unix_socket_path.empty()) {
    std::cerr << "xia_server listening on " << options.unix_socket_path
              << "\n";
  } else {
    std::cerr << "xia_server listening on 127.0.0.1:" << srv.port() << "\n";
  }

  {
    std::lock_guard<std::mutex> writer_lock(shared.write_mu);
    std::unique_lock<RwLock> state_lock(shared.mu);
    // Open persistence BEFORE preloads: recovery refuses a non-empty
    // database, and when previous state exists it replaces --preload
    // regeneration entirely. Replay and the preloads' bulk load never
    // take the state lock; the recovered engine applies under it only
    // once attached, after Open returns.
    if (!data_dir.empty()) {
      Result<std::unique_ptr<storage::StorageEngine>> opened =
          storage::StorageEngine::Open(
              data_dir, &shared.db, &shared.catalog, /*pool=*/nullptr,
              shared.default_options.cost_model.storage);
      if (!opened.ok()) {
        std::cerr << "--data-dir " << data_dir << ": "
                  << opened.status().ToString() << "\n";
        return 1;
      }
      shared.engine = std::move(*opened);
      shared.engine->AttachApplyLock(&shared.mu);
      const storage::RecoveryStats& rec = shared.engine->recovery();
      if (rec.opened_existing) {
        std::cerr << "recovered " << data_dir << " (epoch " << rec.epoch
                  << ", " << rec.pages_read << " pages, "
                  << rec.wal_records_replayed << " WAL records replayed"
                  << (rec.wal_was_clean
                          ? std::string()
                          : ", torn tail of " +
                                std::to_string(rec.wal_torn_bytes) +
                                " bytes truncated")
                  << ")\n";
        if (!preloads.empty()) {
          std::cerr << "state recovered from disk — skipping --preload\n";
          preloads.clear();
        }
      } else {
        std::cerr << "created database at " << data_dir << "\n";
      }
    }
    if (!preloads.empty()) {
      Status status = server::Preload(&shared, preloads);
      if (!status.ok()) {
        std::cerr << status.ToString() << "\n";
        return 1;
      }
      for (const std::string& preload : preloads) {
        std::cerr << "preloaded " << preload << "\n";
      }
    }
  }
  srv.SetReady(true);
  std::cerr << "ready\n";

  // Exit on SIGTERM/SIGINT — or once a client-issued `drain` has let
  // every connection finish, which is the zero-downtime handoff path.
  timespec poll_interval{};
  poll_interval.tv_nsec = 200 * 1000 * 1000;
  while (true) {
    int sig = sigtimedwait(&sigs, nullptr, &poll_interval);
    if (sig > 0) {
      std::cerr << "signal " << sig << " — shutting down\n";
      break;
    }
    if (srv.draining() && srv.active_connections() == 0) {
      std::cerr << "drained — shutting down\n";
      break;
    }
  }
  srv.RequestStop();
  srv.Wait();

  // All sessions have drained; final checkpoint so the next start
  // replays an empty WAL. A checkpoint is a mutation's peer: it runs
  // under the writer mutex.
  Status closed = [&] {
    std::lock_guard<std::mutex> writer_lock(shared.write_mu);
    return shared.engine->Close();
  }();
  if (!closed.ok()) {
    std::cerr << "storage close: " << closed.ToString() << "\n";
    return 1;
  }
  if (!data_dir.empty()) std::cerr << "storage checkpointed and closed\n";

  if (!stats_json.empty()) {
    if (!obs::Registry().WriteJsonFile(stats_json)) {
      std::cerr << "failed to write " << stats_json << "\n";
      return 1;
    }
    std::cerr << "final obs snapshot written to " << stats_json << "\n";
  }
  std::cerr << "clean shutdown\n";
  return 0;
}
