#ifndef XIA_SERVER_RETRYING_CLIENT_H_
#define XIA_SERVER_RETRYING_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "server/client.h"

namespace xia {
namespace server {

/// A fault-tolerant wrapper over BlockingClient: transparently
/// reconnects and retries under a RetryPolicy, so callers see one
/// Call() that either returns a real server reply or a final verdict
/// after the retry budget — never a hung socket.
///
/// What retries, and when (the distinctions matter for correctness):
///   - connect failures (refused, socket path missing, reset during
///     handshake): always retried — no request reached the server.
///   - BUSY replies: always retried — the status line is the server
///     PROMISING it did not execute the request (admission control
///     rejects before dispatch).
///   - GOAWAY replies: always retried after a reconnect — the server is
///     draining or restarting; the request was refused, not executed.
///   - transport failures AFTER the request was sent (EOF, reset,
///     receive timeout): retried only for idempotent verbs. The server
///     may or may not have executed the request, so re-sending a
///     mutating verb (gen/load/materialize/db checkpoint/...) could
///     apply it twice; those fail fast instead.
/// Every other reply (OK, ERR) is final: ERR means the server parsed
/// and refused the request — retrying it verbatim cannot help.
///
/// Reconnects create a fresh server session, which starts with empty
/// per-session state (workload, recommendation, what-if overlay). A
/// caller that depends on session state registers it as the prologue:
/// those commands are replayed, in order, after every (re)connect
/// before the pending request goes out.
///
/// Observability (xia::obs): client.retries (re-attempts after a
/// retryable failure), client.giveups (calls that exhausted the
/// policy), client.reconnects (successful re-establishments after the
/// first), client.busy (BUSY replies absorbed). The chaos harness
/// reconciles these against its fault schedule.
class RetryingClient {
 public:
  /// Targets a unix socket. Nothing connects until the first Call.
  RetryingClient(std::string unix_socket_path, RetryPolicy policy);

  /// Targets loopback TCP.
  RetryingClient(int tcp_port, RetryPolicy policy);

  /// Commands replayed after every (re)connect, before the pending
  /// request (e.g. {"workload xmark"} so a reconnected advise still
  /// has its workload). Prologue replies are discarded; a prologue
  /// command that fails transport-wise fails that connection attempt.
  void set_prologue(std::vector<std::string> commands) {
    prologue_ = std::move(commands);
  }

  /// One logical request under the retry policy. The returned status
  /// on failure is the LAST attempt's verdict; IsRetryable on it tells
  /// the caller whether more time (not more attempts) could help.
  Result<std::string> Call(const std::string& command);

  /// True when `line`'s verb row is retry-safe (VerbSpec::retry_safe):
  /// safe to re-send after an ambiguous transport failure, when the
  /// server may have executed it already. Read-only verbs and
  /// session-local setup are; shared-state mutations are not.
  static bool IsIdempotentCommand(const std::string& line);

  void Close() { client_.Close(); }
  bool connected() const { return client_.connected(); }

  /// Per-instance tallies (the obs counters aggregate across clients).
  uint64_t retries() const { return local_retries_; }
  uint64_t giveups() const { return local_giveups_; }
  uint64_t reconnects() const { return local_reconnects_; }

 private:
  Status EnsureConnected();

  std::string unix_socket_path_;  // Empty when targeting TCP.
  int tcp_port_ = 0;
  RetryPolicy policy_;
  std::vector<std::string> prologue_;
  BlockingClient client_;
  bool ever_connected_ = false;

  uint64_t local_retries_ = 0;
  uint64_t local_giveups_ = 0;
  uint64_t local_reconnects_ = 0;

  obs::Counter retries_{"client.retries"};
  obs::Counter giveups_{"client.giveups"};
  obs::Counter reconnects_{"client.reconnects"};
  obs::Counter busy_{"client.busy"};
};

}  // namespace server
}  // namespace xia

#endif  // XIA_SERVER_RETRYING_CLIENT_H_
