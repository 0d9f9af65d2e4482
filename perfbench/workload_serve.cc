// serve: xia_server runs with --data-dir and one worker per connection.
// Reader connections issue `run` over the read mix in a closed loop; one
// writer connection inserts, updates and deletes documents in a closed
// loop of its own. The only workload with frame I/O, worker dispatch and
// shared-vs-exclusive contention on the server's state lock on the path.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "harness.h"
#include "server/client.h"
#include "server/protocol.h"
#include "storage/storage_engine.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"

namespace perfbench {
namespace {

using namespace xia;
namespace fs = std::filesystem;

constexpr int kDocs = 40;
// Reader connections; one writer connection joins them, and the server
// runs one worker per connection. A request keeps either its driver
// thread or its worker busy, so three connections leave a core of four
// free: with four connections and four workers the run-to-run spread was
// three times as wide.
constexpr int kReaders = 2;
constexpr int kConnections = kReaders + 1;
constexpr size_t kMixSize = 25;
constexpr int kNewDocs = 64;
constexpr int kStartTimeoutMs = 60000;
constexpr int kStopTimeoutMs = 30000;

/// A loopback port nothing listens on: bound to port 0, read back, and
/// released for the server to bind.
Result<int> FreeLoopbackPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  int port = -1;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  if (port <= 0) return Status::Internal("no free loopback port");
  return port;
}

/// A running xia_server over its own data directory; stopping it sends
/// SIGTERM (clean checkpoint and exit) and waits, then removes the
/// directory.
class ServerProcess {
 public:
  ServerProcess(std::string dir, std::string log)
      : dir_(std::move(dir)), log_(std::move(log)) {}
  ~ServerProcess() {
    Stop();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  Status Start(const std::string& binary, int workers) {
    XIA_ASSIGN_OR_RETURN(port_, FreeLoopbackPort());
    // Everything the child needs is built before fork: it only execs.
    const std::string w = std::to_string(workers);
    const std::string port = std::to_string(port_);
    pid_ = ::fork();
    if (pid_ < 0) return Status::Internal("fork failed");
    if (pid_ == 0) {
      // The server must not outlive the benchmark.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execl(binary.c_str(), binary.c_str(), "--port", port.c_str(),
              "--data-dir", dir_.c_str(), "--workers", w.c_str(),
              "--max-connections", "16", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    for (int waited = 0;; waited += 2) {
      if (waited > kStartTimeoutMs || !Alive()) {
        return Status::Internal("xia_server never became ready; see " + log_);
      }
      Result<server::BlockingClient> client = Connect();
      if (client.ok()) {
        Result<std::string> reply = client->Call("ready");
        if (reply.ok() &&
            server::ClassifyResponse(*reply) == server::ResponseKind::kOk) {
          return Status::Ok();
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  Result<server::BlockingClient> Connect() const {
    return server::BlockingClient::ConnectTcp(port_);
  }

  int pid() const { return pid_; }

  /// SIGTERM, then SIGKILL if the clean shutdown overruns.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int waited = 0; waited < kStopTimeoutMs; waited += 5) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  /// False once the child has exited (and then reaps it).
  bool Alive() {
    if (pid_ > 0 && ::waitpid(pid_, nullptr, WNOHANG) == pid_) pid_ = -1;
    return pid_ > 0;
  }

  std::string dir_;
  std::string log_;
  int pid_ = -1;
  int port_ = 0;
};

/// Set-up: the data directory is written through the storage engine from
/// generated documents with the recommendation built, then the server
/// recovers it on start.
std::unique_ptr<ServerProcess> StartServer(const Args& args,
                                           const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  Status status;
  {
    Database db;
    Catalog catalog;
    status = PopulateXMark(&db, "xmark", kDocs, XMarkParams(), kDataSeed);
    if (status.ok()) {
      status = AdviseAndMaterialize(&db, &catalog, MakeXMarkWorkload("xmark"));
    }
    if (status.ok()) {
      Result<std::unique_ptr<storage::StorageEngine>> engine =
          storage::StorageEngine::Open(dir, &db, &catalog, nullptr,
                                       StorageConstants());
      status = engine.ok() ? (*engine)->Close() : engine.status();
    }
  }
  auto server = std::make_unique<ServerProcess>(dir, dir + ".log");
  if (status.ok()) status = server->Start(args.server_bin, kConnections);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return nullptr;
  }
  return server;
}

/// What one connection did over a phase.
struct ConnectionLog {
  Samples untraced;
  Samples traced;
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  Tracer tracer;
};

/// The doc id in a DML reply ("inserted doc 42 of xmark (...)"), or -1.
int64_t ReplyDocId(const std::string& body, const std::string& verb) {
  std::string prefix = verb + " doc ";
  size_t at = body.find(prefix);
  if (at == std::string::npos) return -1;
  return std::atoll(body.c_str() + at + prefix.size());
}

/// One connection's closed loop until `deadline_ns`. A reader runs the
/// read mix. The writer inserts, updates and deletes in equal shares —
/// as many deletes as inserts keeps the collection at its set-up size —
/// with seeded order and seeded update/delete targets among the live
/// documents. In a traced run every other request is traced.
void DriveConnection(const ServerProcess& server, int index, bool writer,
                     const Args& args, const std::vector<std::string>& mix,
                     const std::vector<std::string>& docs, int64_t deadline_ns,
                     bool traced, ConnectionLog* log) {
  Result<server::BlockingClient> connected = server.Connect();
  if (!connected.ok()) {
    ++log->attempted;
    log->failures.push_back("connect: " + connected.status().ToString());
    return;
  }
  server::BlockingClient client = std::move(*connected);
  MixCursor reads(mix.size(), args.seed * 13 + static_cast<uint64_t>(index));
  MixCursor kinds(3, args.seed * 17);
  std::mt19937_64 rng(args.seed * 19);
  // Set-up loaded documents 0..kDocs-1; the writer tracks what is live.
  std::vector<int64_t> live;
  for (int64_t doc = 0; writer && doc < kDocs; ++doc) live.push_back(doc);
  size_t next_doc = 0;
  for (uint64_t op = 0; NowNs() < deadline_ns; ++op) {
    Tracer* tracer = traced && op % 2 == 1 ? &log->tracer : nullptr;
    std::string verb = "run";
    std::string command;
    size_t target = 0;
    if (!writer) {
      command = "run " + mix[reads.Next()];
    } else {
      size_t kind = kinds.Next();
      target = rng() % live.size();
      const std::string& xml = docs[next_doc++ % docs.size()];
      if (kind == 0) {
        verb = "inserted";
        command = "insert xmark " + xml;
      } else if (kind == 1) {
        verb = "updated";
        command = "update xmark " + std::to_string(live[target]) + " " + xml;
      } else {
        verb = "deleted";
        command = "delete xmark " + std::to_string(live[target]);
      }
    }
    int64_t t0 = NowNs();
    Result<std::string> reply = Status::Internal("not sent");
    {
      Tracer::Scope span(tracer, "request");
      reply = client.Call(command);
    }
    double us = static_cast<double>(NowNs() - t0) / 1e3;
    ++log->attempted;
    if (!reply.ok()) {
      log->failures.push_back(verb + ": " + reply.status().ToString());
      continue;
    }
    bool ok = server::ClassifyResponse(*reply) == server::ResponseKind::kOk;
    if (ok && !writer) {
      ok = reply->find(" result nodes from ") != std::string::npos;
    }
    int64_t doc = writer ? ReplyDocId(*reply, verb) : 0;
    if (ok && writer) ok = doc >= 0;
    if (!ok) {
      log->failures.push_back(verb + ": " + reply->substr(0, 200));
      continue;
    }
    if (verb == "inserted") {
      live.push_back(doc);
    } else if (verb == "updated") {
      live[target] = doc;
    } else if (verb == "deleted") {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(target));
    }
    (tracer != nullptr ? log->traced : log->untraced).Add(us);
  }
}

/// Runs every connection until the phase ends; returns the phase seconds.
/// The last log is the writer's.
double RunPhase(const ServerProcess& server, const Args& args,
                const std::vector<std::string>& mix,
                const std::vector<std::string>& docs, double seconds,
                bool traced, std::vector<ConnectionLog>* logs) {
  logs->resize(kConnections);
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int i = 0; i < kConnections; ++i) {
    threads.emplace_back(DriveConnection, std::cref(server), i,
                         i == kReaders, std::cref(args), std::cref(mix),
                         std::cref(docs), deadline, traced,
                         &(*logs)[static_cast<size_t>(i)]);
  }
  for (std::thread& t : threads) t.join();
  return SecondsSince(start);
}

/// Per-verb (count, µs) from the server's `stats` reply.
std::map<std::string, std::pair<double, double>> VerbStats(
    const ServerProcess& server) {
  std::map<std::string, std::pair<double, double>> verbs;
  Result<server::BlockingClient> client = server.Connect();
  if (!client.ok()) return verbs;
  Result<std::string> reply = client->Call("stats");
  if (!reply.ok()) return verbs;
  std::istringstream lines(*reply);
  std::string line;
  const std::string prefix = "span.server.verb.";
  while (std::getline(lines, line)) {
    size_t at = line.find(prefix);
    if (at == std::string::npos) continue;
    std::istringstream fields(line.substr(at + prefix.size()));
    std::string verb, eq, calls_word;
    double calls = 0, micros = 0;
    fields >> verb >> eq >> calls >> calls_word >> micros;
    verbs[verb] = {calls, micros};
  }
  return verbs;
}

}  // namespace

int RunServe(const Args& args, Report* report) {
  if (args.server_bin.empty()) {
    std::cerr << "serve needs --server-bin\n";
    return 2;
  }
  int setup_round = 0;
  std::unique_ptr<ServerProcess> server;
  double setup_s = RepeatSetup(&server, [&] {
    return StartServer(args, args.work_dir + "/serve-" +
                                 std::to_string(setup_round++));
  });
  if (server == nullptr) return 1;
  report->Set("setup_s", setup_s, "s");

  std::vector<std::string> mix = MakeReadMix(false, kMixSize);
  std::vector<std::string> docs = MakeXMarkDocs(kDataSeed + 1, kNewDocs);

  auto before = VerbStats(*server);
  std::vector<ConnectionLog> logs;
  double phase_s = RunPhase(*server, args, mix, docs, args.seconds,
                            args.trace, &logs);
  auto after = VerbStats(*server);
  Samples reads, writes, traced_ops;
  Tracer tracer;
  for (size_t i = 0; i < logs.size(); ++i) {
    const ConnectionLog& log = logs[i];
    report->Attempt(log.attempted);
    for (const std::string& why : log.failures) report->Fail(why);
    (i == kReaders ? writes : reads).Append(log.untraced);
    traced_ops.Append(log.traced);
    tracer.Merge(log.tracer);
  }
  Samples ops;
  ops.Append(reads);
  ops.Append(writes);

  if (!args.trace) {
    ReportOps(ops, phase_s, report);
    report->Set("peak_rss_mb", PeakRssMb() + PeakRssMb(server->pid()),
                "MiB");
    server->Stop();
    return 0;
  }
  ReportOps(ops, phase_s / 2, report);
  server->Stop();
  SaveTrace(args, tracer);

  auto delta = [&](const std::string& verb) {
    return std::make_pair(after[verb].first - before[verb].first,
                          after[verb].second - before[verb].second);
  };
  auto [run_n, run_us] = delta("run");
  double write_n = 0, write_us = 0;
  for (const char* verb : {"insert", "update", "delete"}) {
    auto [n, us] = delta(verb);
    write_n += n;
    write_us += us;
  }
  double requests = run_n + write_n;
  double verb_mean = requests > 0 ? (run_us + write_us) / requests : 0;
  Samples all_ops;
  all_ops.Append(ops);
  all_ops.Append(traced_ops);
  double wire_us = all_ops.Mean() - verb_mean;
  report->Set("read_us_p50", reads.Quantile(0.5), "us");
  report->Set("read_us_p99", reads.Quantile(0.99), "us");
  report->Set("write_us_p50", writes.Quantile(0.5), "us");
  report->Set("write_us_p99", writes.Quantile(0.99), "us");
  report->Set("server.run_verb_us", run_n > 0 ? run_us / run_n : 0, "us");
  report->Set("server.write_verb_us", write_n > 0 ? write_us / write_n : 0,
              "us");
  report->Set("server.wire_us", wire_us, "us");
  report->Set("server.busy_frac",
              (run_us + write_us) / (phase_s * 1e6 * kConnections), "ratio");
  report->Set("server.requests", requests, "count");
  ReportTraceOverhead(tracer, {"request"}, ops.Mean(), traced_ops.Mean(),
                      report);
  // The client sees one span per request; what the server's verb time does
  // not cover is framing, the socket and dispatch.
  report->Set("trace.unattributed_frac",
              all_ops.Mean() > 0 ? wire_us / all_ops.Mean() : 0, "ratio");
  return 0;
}

}  // namespace perfbench
