#ifndef XIA_SERVER_SERVER_H_
#define XIA_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "server/protocol.h"
#include "server/session.h"

namespace xia {
namespace server {

/// xia::server — the advisor as a long-running concurrent service.
///
/// One process hosts one SharedState (database, catalog, caches, capture
/// log); each accepted connection gets a ClientSession and a dedicated
/// worker slot in a xia::ThreadPool, reads length-prefixed command frames
/// (server/protocol.h), executes them through the CommandDispatcher —
/// the same verbs the advisor_shell REPL runs — and writes one response
/// frame per request.
///
/// Admission control (overload → fast BUSY, never a hang):
///   - connections: at most `max_connections` concurrently; an accept
///     beyond that is answered with one BUSY frame and closed.
///   - advises: at most `max_inflight_advises` advise-class requests
///     (rows with VerbAdmission::kAdvise: advise, drift readvise) run at
///     once; excess requests get an immediate BUSY reply without
///     touching the advisor.
///
/// Connection governance (misbehaving clients cost a socket, never a
/// worker):
///   - io_timeout_ms bounds how long a client may stall mid-frame and
///     (x4) how long one response write may take end to end.
///   - idle_timeout_ms reaps connections that hold a slot without
///     sending requests.
///   - `health` answers whenever the process is alive; `ready` answers
///     whether it should receive traffic (false while recovering,
///     draining, or at advise capacity); `drain` flips the server into
///     lame-duck mode where every verb whose row does not answer while
///     draining gets GOAWAY. All three take no locks (VerbLock::kNone),
///     so they answer even while recovery holds the state lock
///     exclusively; the server is their ServingHost.
///
/// Observability (xia::obs):
///   gauges   server.connections, server.advises_inflight
///   counters server.accepted, server.rejected_connections,
///            server.requests, server.busy, server.protocol_errors,
///            server.timeouts, server.reaped_idle, server.goaway
///   spans    server.verb.<verb> latency histograms (always recorded —
///            the server enables no other spans, so request latency does
///            not depend on the global span switch)
///
/// Failpoints: server.accept (arg = accepted fd count), server.read and
/// server.write (arg = connection id) — an injected accept fault skips
/// that client, an injected read/write fault drops that connection; the
/// server itself keeps serving.
///
/// Shutdown: RequestStop() (signal-safe) stops the acceptor, fires the
/// shutdown CancelToken so in-flight advises wind down at their next
/// poll (anytime semantics: clients still get a valid best-so-far
/// reply), shuts down live sockets, and Wait() joins everything.
struct ServerOptions {
  /// Listen on a unix socket at this path (removed and re-created).
  /// Takes precedence over tcp_port.
  std::string unix_socket_path;
  /// Listen on loopback TCP at this port; 0 picks an ephemeral port
  /// (read it back with Server::port()). Used when unix_socket_path is
  /// empty.
  int tcp_port = 0;
  /// Connection-handler threads — the concurrent-connection ceiling is
  /// min(workers, max_connections).
  int workers = 8;
  /// Accept admission bound: connections beyond this many live ones get
  /// one BUSY frame and an immediate close.
  int max_connections = 8;
  /// Advise admission bound (advise / drift readvise in flight).
  int max_inflight_advises = 2;
  /// Default time budget for advise-class verbs when the client sends
  /// none (0 = unlimited). Per-request `advise --budget-ms N` overrides.
  int64_t default_budget_ms = 0;
  /// Per-frame payload ceiling.
  size_t max_frame_bytes = kMaxFrameBytes;
  /// Per-connection I/O deadline (0 = unbounded): a client that stalls
  /// mid-frame for this long is dropped (counter server.timeouts), and a
  /// response write gets 4x this as its whole-frame budget so a slow
  /// reader trickling one byte per window cannot pin a worker.
  int64_t io_timeout_ms = 0;
  /// Idle-connection reaping (0 = never): a connection with no pending
  /// bytes and no request for this long is closed (server.reaped_idle).
  /// Distinct from io_timeout_ms — idling between requests is polite,
  /// stalling mid-frame is not, so the idle bound is typically much
  /// larger.
  int64_t idle_timeout_ms = 0;
};

class Server : private ServingHost {
 public:
  /// `shared` must outlive the server.
  Server(SharedState* shared, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the acceptor + worker pool. Fails on
  /// socket errors (path too long, address in use, ...).
  Status Start();

  /// Initiates shutdown; safe from any thread and from signal context
  /// relaying through a sigwait thread (not from an async handler
  /// directly — it takes locks). Idempotent.
  void RequestStop();

  /// Blocks until the acceptor and every connection worker exited.
  void Wait();

  /// The bound TCP port (after Start with tcp transport), else 0.
  int port() const { return port_; }

  /// The shutdown token connections derive per-request tokens from.
  /// Exposed so embedders (tests) can observe cancellation.
  const CancelToken& shutdown_token() const { return shutdown_token_; }

  /// Live connection count (tests).
  int active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

  /// Readiness gate behind the `ready` verb. Starts true; server_main
  /// starts the server not-ready, recovers storage, then flips it — so
  /// `health` answers during a long recovery while `ready` says wait.
  void SetReady(bool ready) {
    ready_.store(ready, std::memory_order_relaxed);
  }
  bool ready() const { return ready_.load(std::memory_order_relaxed); }

  /// Enters draining: readiness goes false, in-flight requests finish,
  /// and every new connection or subsequent request is answered with one
  /// GOAWAY frame and a close (verbs whose row answers while draining —
  /// health/ready/drain/stats/quit/exit — still answered). The embedder
  /// decides when to RequestStop() — typically once active_connections()
  /// reaches zero. Idempotent.
  void Drain() override;
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

 private:
  /// Accept loop (dedicated thread).
  void AcceptLoop();

  /// One accepted connection, start to close (runs on the pool).
  void HandleConnection(int fd, uint64_t connection_id);

  /// Why `ready` says no: draining, recovering, or at advise capacity.
  std::string NotReadyReason() const override;

  /// Executes one request payload and returns the response payload.
  std::string HandleRequest(const std::string& request,
                            ClientSession* session, bool* quit);

  /// Sends one whole frame; false on error (connection must close).
  bool SendFrame(int fd, uint64_t connection_id, const std::string& payload);

  /// Closes the listening socket (unblocks accept).
  void CloseListener();

  SharedState* shared_;
  ServerOptions options_;
  CommandDispatcher dispatcher_;

  // Atomic: the acceptor reads it for accept() while RequestStop()'s
  // thread swaps in -1 when closing the listener.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> ready_{true};
  std::atomic<bool> draining_{false};
  CancelToken shutdown_token_ = CancelToken::Cancellable();

  std::thread acceptor_;
  std::unique_ptr<ThreadPool> pool_;

  std::mutex conns_mu_;
  std::set<int> live_fds_;  // For shutdown() on stop.

  std::atomic<int> active_connections_{0};
  std::atomic<int> inflight_advises_{0};
  std::atomic<uint64_t> next_connection_id_{0};
  std::atomic<uint64_t> accepted_count_{0};

  obs::Gauge connections_gauge_{"server.connections"};
  obs::Gauge advises_gauge_{"server.advises_inflight"};
  obs::Counter accepted_{"server.accepted"};
  obs::Counter rejected_connections_{"server.rejected_connections"};
  obs::Counter requests_{"server.requests"};
  obs::Counter busy_{"server.busy"};
  obs::Counter protocol_errors_{"server.protocol_errors"};
  obs::Counter timeouts_{"server.timeouts"};
  obs::Counter reaped_idle_{"server.reaped_idle"};
  obs::Counter goaway_{"server.goaway"};
};

}  // namespace server
}  // namespace xia

#endif  // XIA_SERVER_SERVER_H_
