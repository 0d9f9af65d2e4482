#include "server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/failpoint.h"
#include "server/net_util.h"

namespace xia {
namespace server {

namespace {

/// Failpoint hooks live in tiny Status helpers so the XIA_FAILPOINT
/// early-return macro composes with the surrounding loops.
Status AcceptFailpoint(int64_t accepted_so_far) {
  XIA_FAILPOINT_ARG("server.accept", accepted_so_far);
  return Status::Ok();
}

Status ReadFailpoint(int64_t connection_id) {
  XIA_FAILPOINT_ARG("server.read", connection_id);
  return Status::Ok();
}

Status WriteFailpoint(int64_t connection_id) {
  XIA_FAILPOINT_ARG("server.write", connection_id);
  return Status::Ok();
}

}  // namespace

Server::Server(SharedState* shared, ServerOptions options)
    : shared_(shared),
      options_(std::move(options)),
      dispatcher_(shared, this) {}

Server::~Server() {
  RequestStop();
  Wait();
}

Status Server::Start() {
  if (!options_.unix_socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_socket_path);
    }
    std::strncpy(addr.sun_path, options_.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::Internal(std::string("socket: ") + std::strerror(errno));
    }
    ::unlink(options_.unix_socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      Status status = Status::Internal("bind " + options_.unix_socket_path +
                                       ": " + std::strerror(errno));
      CloseListener();
      return status;
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::Internal(std::string("socket: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      Status status =
          Status::Internal(std::string("bind: ") + std::strerror(errno));
      CloseListener();
      return status;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
  }
  // The kernel backlog is part of the bounded accept queue: beyond it,
  // clients queue in SYN limbo instead of growing server-side state.
  if (::listen(listen_fd_, options_.max_connections) != 0) {
    Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    CloseListener();
    return status;
  }
  pool_ = std::make_unique<ThreadPool>(options_.workers);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::Drain() {
  if (draining_.exchange(true)) return;
  ready_.store(false, std::memory_order_relaxed);
}

std::string Server::NotReadyReason() const {
  if (draining_.load(std::memory_order_relaxed)) return "draining";
  if (!ready_.load(std::memory_order_relaxed)) return "recovering";
  if (inflight_advises_.load(std::memory_order_relaxed) >=
      options_.max_inflight_advises) {
    return "at advise capacity";
  }
  return "";
}

void Server::RequestStop() {
  if (stopping_.exchange(true)) return;
  shutdown_token_.Cancel();
  CloseListener();
  // Unblock workers parked in read(): shut both directions down on every
  // live connection. The worker sees EOF/error and exits its loop.
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
}

void Server::Wait() {
  if (acceptor_.joinable()) acceptor_.join();
  // ThreadPool's destructor drains queued connection tasks and joins.
  pool_.reset();
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
}

void Server::CloseListener() {
  int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() first: close() alone does not unblock a concurrent
    // accept() on all platforms.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // Listener gone (shutdown race) or unrecoverable.
    }
    Status injected =
        AcceptFailpoint(static_cast<int64_t>(accepted_count_.load()));
    if (!injected.ok()) {
      // Injected accept fault: this client is dropped, the server lives.
      ::close(fd);
      continue;
    }
    accepted_count_.fetch_add(1);
    accepted_.Increment();
    // Bound every one-shot reject send below AND all worker I/O on this
    // fd: without SO_SNDTIMEO a zero-window client could park the
    // acceptor thread inside send(), which stalls all admission.
    if (options_.io_timeout_ms > 0) {
      (void)net::SetSendTimeoutMillis(fd, options_.io_timeout_ms);
    }
    if (draining_.load(std::memory_order_relaxed)) {
      // Lame duck: refuse with a status distinct from BUSY so clients
      // reconnect elsewhere/later instead of hammering the drain.
      goaway_.Increment();
      std::string frame = EncodeFrame(GoawayResponse("server draining"));
      (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    // Connection admission: beyond max_connections the client gets one
    // fast BUSY frame, not a silent queue slot. (A ThreadPool task queue
    // would otherwise grow unboundedly with waiting connections.)
    int active = active_connections_.fetch_add(1) + 1;
    if (stopping_.load(std::memory_order_relaxed) ||
        active > options_.max_connections) {
      active_connections_.fetch_sub(1);
      rejected_connections_.Increment();
      std::string frame = EncodeFrame(BusyResponse(
          "server at connection capacity (" +
          std::to_string(options_.max_connections) + ")"));
      // MSG_NOSIGNAL: a client that already hung up must not SIGPIPE us.
      (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    connections_gauge_.Set(active);
    uint64_t connection_id = next_connection_id_.fetch_add(1);
    pool_->Submit([this, fd, connection_id] {
      HandleConnection(fd, connection_id);
    });
  }
}

void Server::HandleConnection(int fd, uint64_t connection_id) {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    live_fds_.insert(fd);
  }
  ClientSession session(*shared_);
  session.options.time_budget_ms = options_.default_budget_ms;
  // Every request derives its cancellation from the shutdown token, so
  // SIGTERM winds down in-flight advises (anytime best-so-far replies).
  session.options.cancel = shutdown_token_.Child();

  // One SO_RCVTIMEO tick drives both timeout policies: waking with a
  // partial frame pending means the client stalled mid-request (drop,
  // server.timeouts); waking with nothing pending is mere idleness,
  // tolerated until idle_timeout_ms (drop, server.reaped_idle). With
  // only an idle bound configured, the tick IS the idle bound.
  const int64_t tick_ms = options_.io_timeout_ms > 0
                              ? options_.io_timeout_ms
                              : options_.idle_timeout_ms;
  if (tick_ms > 0) (void)net::SetRecvTimeoutMillis(fd, tick_ms);

  FrameDecoder decoder(options_.max_frame_bytes);
  char buf[4096];
  bool quit = false;
  auto last_activity = std::chrono::steady_clock::now();
  while (!quit && !stopping_.load(std::memory_order_relaxed)) {
    Status injected = ReadFailpoint(static_cast<int64_t>(connection_id));
    if (!injected.ok()) break;  // Injected read fault: drop connection.
    ssize_t n = 0;
    int read_errno = 0;
    net::ReadEvent event = net::ReadSome(fd, buf, sizeof(buf), &n, &read_errno);
    if (event == net::ReadEvent::kEof || event == net::ReadEvent::kError) {
      break;
    }
    if (event == net::ReadEvent::kTimeout) {
      if (options_.io_timeout_ms > 0 && decoder.pending_bytes() > 0) {
        timeouts_.Increment();  // Stalled mid-frame: free the worker.
        break;
      }
      if (options_.idle_timeout_ms > 0) {
        auto idle_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - last_activity)
                           .count();
        if (idle_ms >= options_.idle_timeout_ms) {
          reaped_idle_.Increment();
          break;
        }
      }
      continue;  // Tick expired but neither policy fired: keep waiting.
    }
    last_activity = std::chrono::steady_clock::now();
    Status fed = decoder.Feed(buf, static_cast<size_t>(n));
    if (!fed.ok()) {
      // Oversized frame: the stream cannot be resynchronized. Tell the
      // client once, then close.
      protocol_errors_.Increment();
      SendFrame(fd, connection_id, ErrResponse(fed.ToString()));
      break;
    }
    while (!quit) {
      std::optional<std::string> request = decoder.Next();
      if (!request.has_value()) break;
      std::string response = HandleRequest(*request, &session, &quit);
      if (!SendFrame(fd, connection_id, response)) {
        quit = true;
        break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    live_fds_.erase(fd);
  }
  ::close(fd);
  connections_gauge_.Set(active_connections_.fetch_sub(1) - 1);
}

std::string Server::HandleRequest(const std::string& request,
                                  ClientSession* session, bool* quit) {
  requests_.Increment();
  if (std::all_of(request.begin(), request.end(),
                  [](unsigned char c) { return std::isspace(c); })) {
    // A zero-length (or all-whitespace) payload is a well-formed frame
    // carrying no command: answer ERR, keep the connection.
    protocol_errors_.Increment();
    return ErrResponse("empty request");
  }
  const VerbSpec& spec = CommandDispatcher::Lookup(request);
  if (draining_.load(std::memory_order_relaxed) && !spec.while_draining) {
    // Lame duck: only the verbs an operator watching the drain needs
    // still answer; everything else gets GOAWAY and a close.
    goaway_.Increment();
    *quit = true;
    return GoawayResponse("server draining");
  }
  const bool is_advise = spec.admission == VerbAdmission::kAdvise;
  if (is_advise) {
    // Advise admission: never queue behind other advises — overload gets
    // a fast BUSY the load generator (and a human) can react to.
    int inflight = inflight_advises_.fetch_add(1) + 1;
    if (inflight > options_.max_inflight_advises) {
      inflight_advises_.fetch_sub(1);
      busy_.Increment();
      return BusyResponse(
          "advise capacity (" +
          std::to_string(options_.max_inflight_advises) + " in flight)");
    }
    advises_gauge_.Set(inflight);
  }
  auto started = std::chrono::steady_clock::now();
  std::ostringstream out;
  CommandOutcome outcome;
  try {
    outcome = dispatcher_.Execute(request, session, out);
  } catch (const std::exception& e) {
    if (is_advise) advises_gauge_.Set(inflight_advises_.fetch_sub(1) - 1);
    protocol_errors_.Increment();
    return ErrResponse(std::string("exception: ") + e.what());
  }
  if (is_advise) advises_gauge_.Set(inflight_advises_.fetch_sub(1) - 1);
  auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - started)
                    .count();
  // Per-verb latency histograms, recorded unconditionally: the server IS
  // the investigation surface, unlike library spans (default-off). Keyed
  // by the row, so junk verbs share one `unknown` histogram instead of
  // each growing the never-freed registry.
  obs::Registry()
      .GetSpanHistogram(std::string("server.verb.") + spec.verb)
      .Record(static_cast<uint64_t>(micros));
  if (outcome == CommandOutcome::kQuit) {
    *quit = true;
    return OkResponse("bye");
  }
  if (outcome == CommandOutcome::kRefused) return ErrResponse(out.str());
  return OkResponse(out.str());
}

bool Server::SendFrame(int fd, uint64_t connection_id,
                       const std::string& payload) {
  Status injected = WriteFailpoint(static_cast<int64_t>(connection_id));
  if (!injected.ok()) return false;  // Injected write fault.
  std::string frame = EncodeFrame(payload);
  // SO_SNDTIMEO alone cannot stop a reader that accepts one byte per
  // window from pinning this worker indefinitely — each tiny send
  // "progresses". The whole-frame deadline (4 io-timeouts) does.
  Deadline deadline = options_.io_timeout_ms > 0
                          ? Deadline::AfterMillis(options_.io_timeout_ms * 4)
                          : Deadline::Infinite();
  bool stalled = false;
  Status written =
      net::WriteAll(fd, frame.data(), frame.size(), deadline, &stalled);
  if (!written.ok()) {
    if (stalled) timeouts_.Increment();
    return false;
  }
  return true;
}

}  // namespace server
}  // namespace xia
