#include "server/retrying_client.h"

#include <utility>

#include "server/session.h"

namespace xia {
namespace server {

RetryingClient::RetryingClient(std::string unix_socket_path,
                               RetryPolicy policy)
    : unix_socket_path_(std::move(unix_socket_path)),
      policy_(std::move(policy)) {}

RetryingClient::RetryingClient(int tcp_port, RetryPolicy policy)
    : tcp_port_(tcp_port), policy_(std::move(policy)) {}

bool RetryingClient::IsIdempotentCommand(const std::string& line) {
  return CommandDispatcher::Lookup(line).retry_safe;
}

Status RetryingClient::EnsureConnected() {
  if (client_.connected()) return Status::Ok();
  Result<BlockingClient> connected =
      unix_socket_path_.empty()
          ? BlockingClient::ConnectTcp(tcp_port_)
          : BlockingClient::ConnectUnix(unix_socket_path_);
  if (!connected.ok()) return connected.status();
  client_ = std::move(*connected);
  if (policy_.attempt_budget_ms > 0) {
    Status set = client_.SetIoTimeoutMillis(policy_.attempt_budget_ms);
    if (!set.ok()) {
      client_.Close();
      return set;
    }
  }
  for (const std::string& command : prologue_) {
    Result<std::string> reply = client_.Call(command);
    if (!reply.ok()) {
      client_.Close();
      return reply.status();
    }
  }
  if (ever_connected_) {
    reconnects_.Increment();
    ++local_reconnects_;
  }
  ever_connected_ = true;
  return Status::Ok();
}

Result<std::string> RetryingClient::Call(const std::string& command) {
  const bool idempotent = IsIdempotentCommand(command);
  RetryState retry(policy_);
  Status last = Status::Unavailable("no attempt made");
  while (true) {
    Status connected = EnsureConnected();
    if (connected.ok()) {
      Result<std::string> reply = client_.Call(command);
      if (reply.ok()) {
        switch (ClassifyResponse(*reply)) {
          case ResponseKind::kBusy:
            // The server refused before dispatch — it executed nothing,
            // so even a mutating verb is safe to re-send.
            busy_.Increment();
            last = Status::ResourceExhausted("server busy: " + *reply);
            break;
          case ResponseKind::kGoaway:
            // Draining: this connection is done; a reconnect may land
            // on a restarted (or un-drained) server.
            client_.Close();
            last = Status::Unavailable("server going away: " + *reply);
            break;
          default:
            return reply;
        }
      } else {
        // Transport failure mid-call: the connection is unusable (and
        // the decoder may hold a partial reply) — drop it either way.
        client_.Close();
        last = reply.status();
        if (RetryPolicy::IsRetryable(last) && !idempotent) {
          giveups_.Increment();
          ++local_giveups_;
          return Status(
              last.code(),
              "not retried (verb is not idempotent — the server may have "
              "executed the lost request): " +
                  last.message());
        }
      }
    } else {
      // Nothing was sent: always safe to retry, idempotent or not.
      last = connected;
    }
    if (!retry.NextAttempt(last)) break;
    retries_.Increment();
    ++local_retries_;
  }
  if (RetryPolicy::IsRetryable(last)) {
    giveups_.Increment();
    ++local_giveups_;
  }
  return last;
}

}  // namespace server
}  // namespace xia
