// xia::server — wire framing, the concurrent advisor service, and its
// failure modes. Covers frame round-trips under split and coalesced
// reads, oversized-frame poisoning, concurrent sessions sharing one
// what-if plan cache with bit-identical advise replies, deadline-expired
// advises returning flagged best-so-far results, BUSY fast-rejection
// under both admission bounds, and the server.accept / server.read
// failpoint sweep (an injected fault drops one client, never the
// server), plus connection governance: mid-frame stall timeouts, idle
// reaping, health/ready probes, and the drain → GOAWAY → clean-exit
// protocol. The whole file runs under ASan+UBSan and TSan in CI.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session.h"
#include "storage/storage_engine.h"
#include "xml/serializer.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace server {
namespace {

// ---------------------------------------------------------------------
// Framing.

TEST(FrameDecoderTest, RoundTripSingleFrame) {
  FrameDecoder decoder;
  std::string frame = EncodeFrame("advise 64");
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + 9);
  ASSERT_TRUE(decoder.Feed(frame).ok());
  std::optional<std::string> payload = decoder.Next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "advise 64");
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameDecoderTest, SplitReadsReassemble) {
  // Feed one byte at a time — a frame must survive any read segmentation
  // the kernel produces.
  FrameDecoder decoder;
  std::string frame = EncodeFrame("stats");
  for (size_t i = 0; i < frame.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(frame.data() + i, 1).ok());
    if (i + 1 < frame.size()) {
      EXPECT_FALSE(decoder.Next().has_value()) << "completed early at " << i;
    }
  }
  std::optional<std::string> payload = decoder.Next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "stats");
}

TEST(FrameDecoderTest, CoalescedFramesAllPop) {
  // Several frames in one read: Next() must drain them in order.
  FrameDecoder decoder;
  std::string wire =
      EncodeFrame("ping") + EncodeFrame("") + EncodeFrame("quit");
  ASSERT_TRUE(decoder.Feed(wire).ok());
  std::optional<std::string> first = decoder.Next();
  std::optional<std::string> second = decoder.Next();
  std::optional<std::string> third = decoder.Next();
  ASSERT_TRUE(first && second && third);
  EXPECT_EQ(*first, "ping");
  EXPECT_EQ(*second, "");
  EXPECT_EQ(*third, "quit");
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameDecoderTest, OversizedFramePoisonsPermanently) {
  FrameDecoder decoder(/*max_frame_bytes=*/16);
  std::string ok_frame = EncodeFrame("small");
  ASSERT_TRUE(decoder.Feed(ok_frame).ok());
  ASSERT_TRUE(decoder.Next().has_value());

  std::string big_frame = EncodeFrame(std::string(17, 'x'));
  Status fed = decoder.Feed(big_frame);
  EXPECT_FALSE(fed.ok());
  EXPECT_TRUE(decoder.poisoned());
  // Poisoning is permanent: even a well-formed frame is rejected, and
  // nothing can be popped — framing is no longer trusted.
  EXPECT_FALSE(decoder.Feed(ok_frame).ok());
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameDecoderTest, HeaderAloneDoesNotComplete) {
  FrameDecoder decoder;
  std::string frame = EncodeFrame("abc");
  ASSERT_TRUE(decoder.Feed(frame.data(), kFrameHeaderBytes).ok());
  EXPECT_FALSE(decoder.Next().has_value());
  ASSERT_TRUE(
      decoder.Feed(frame.data() + kFrameHeaderBytes, frame.size() -
                                                         kFrameHeaderBytes)
          .ok());
  EXPECT_EQ(decoder.Next().value_or(""), "abc");
}

TEST(FrameDecoderTest, ZeroLengthFrameIsAValidEmptyPayload) {
  // A zero-length frame is well-formed on the wire (the server answers
  // it with "ERR empty request", it is not a protocol violation).
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(EncodeFrame("")).ok());
  std::optional<std::string> payload = decoder.Next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "");
  EXPECT_FALSE(decoder.poisoned());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  // The connection keeps working afterwards.
  ASSERT_TRUE(decoder.Feed(EncodeFrame("ping")).ok());
  EXPECT_EQ(decoder.Next().value_or(""), "ping");
}

TEST(FrameDecoderTest, ExactMaxSizeFrameAcceptedOneByteOverPoisons) {
  // The limit is inclusive: length == max_frame_bytes is the largest
  // legal payload; length == max + 1 poisons.
  FrameDecoder at_limit(/*max_frame_bytes=*/8);
  ASSERT_TRUE(at_limit.Feed(EncodeFrame("12345678")).ok());
  EXPECT_EQ(at_limit.Next().value_or(""), "12345678");
  EXPECT_FALSE(at_limit.poisoned());

  FrameDecoder over_limit(/*max_frame_bytes=*/8);
  EXPECT_FALSE(over_limit.Feed(EncodeFrame("123456789")).ok());
  EXPECT_TRUE(over_limit.poisoned());
}

TEST(ResponseTest, StatusLineClassification) {
  EXPECT_EQ(ClassifyResponse(OkResponse("")), ResponseKind::kOk);
  EXPECT_EQ(ClassifyResponse(OkResponse("body\nlines")), ResponseKind::kOk);
  EXPECT_EQ(ClassifyResponse(ErrResponse("bad verb")), ResponseKind::kErr);
  EXPECT_EQ(ClassifyResponse(BusyResponse("advise capacity")),
            ResponseKind::kBusy);
  EXPECT_EQ(ClassifyResponse(GoawayResponse("server draining")),
            ResponseKind::kGoaway);
  EXPECT_EQ(ClassifyResponse("GOAWAY"), ResponseKind::kGoaway);
  EXPECT_EQ(ClassifyResponse("definitely not a status line"),
            ResponseKind::kMalformed);
  // Empty payloads and empty status lines are malformed, never OK.
  EXPECT_EQ(ClassifyResponse(""), ResponseKind::kMalformed);
  EXPECT_EQ(ClassifyResponse("\nbody after empty line"),
            ResponseKind::kMalformed);
  // Keyword must match exactly: prefixes of real keywords are not them.
  EXPECT_EQ(ClassifyResponse("OKAY"), ResponseKind::kMalformed);
  EXPECT_EQ(ClassifyResponse("ERR"), ResponseKind::kMalformed);
}

// ---------------------------------------------------------------------
// The server proper. Each test binds an ephemeral loopback port.

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::DisarmAll(); }
  void TearDown() override {
    server_.reset();  // RequestStop + Wait before shared_ dies.
    fp::DisarmAll();
  }

  void Preload(int docs) {
    ASSERT_TRUE(
        PopulateXMark(&shared_.db, "xmark", docs, XMarkParams(), 42).ok());
  }

  void StartServer(ServerOptions options = {}) {
    options.tcp_port = 0;  // Ephemeral; read back via port().
    server_ = std::make_unique<Server>(&shared_, options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    ASSERT_GT(server_->port(), 0);
  }

  BlockingClient Connect() {
    Result<BlockingClient> client = BlockingClient::ConnectTcp(server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  SharedState shared_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingAndHelpAndQuit) {
  StartServer();
  BlockingClient client = Connect();

  Result<std::string> pong = client.Call("ping");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, OkResponse("pong\n"));

  Result<std::string> help = client.Call("help");
  ASSERT_TRUE(help.ok());
  EXPECT_EQ(ClassifyResponse(*help), ResponseKind::kOk);
  EXPECT_NE(help->find("advise"), std::string::npos);

  Result<std::string> bye = client.Call("quit");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(ClassifyResponse(*bye), ResponseKind::kOk);
  // The server closes the session after quit.
  EXPECT_FALSE(client.Receive().ok());
}

TEST_F(ServerTest, UnknownVerbStillHandled) {
  StartServer();
  BlockingClient client = Connect();
  Result<std::string> reply = client.Call("frobnicate");
  ASSERT_TRUE(reply.ok());
  // Unknown verbs are shell-compatible advisory text, not a dropped
  // connection — the next request on the same session works.
  EXPECT_NE(reply->find("unknown command"), std::string::npos);
  Result<std::string> pong = client.Call("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, OkResponse("pong\n"));
}

// Junk verbs are timed under the one `server.verb.unknown` histogram: a
// histogram per distinct junk token would grow the never-freed registry
// (and every later `stats` reply) without bound.
TEST_F(ServerTest, UnknownVerbsShareOneHistogram) {
  StartServer();
  BlockingClient client = Connect();
  auto verb_lines = [&client]() {
    Result<std::string> stats = client.Call("stats");
    EXPECT_TRUE(stats.ok());
    size_t lines = 0;
    for (size_t at = stats->find("span.server.verb.");
         at != std::string::npos;
         at = stats->find("span.server.verb.", at + 1)) {
      ++lines;
    }
    return lines;
  };
  const size_t before = verb_lines();
  for (int i = 0; i < 100; ++i) {
    Result<std::string> reply = client.Call("junk" + std::to_string(i));
    ASSERT_TRUE(reply.ok());
    EXPECT_NE(reply->find("unknown command"), std::string::npos);
  }
  EXPECT_LE(verb_lines(), before + 1);
  EXPECT_GE(obs::Registry().TakeSnapshot().spans["server.verb.unknown"].count,
            100u);
}

TEST_F(ServerTest, ConcurrentSessionsShareCostCacheBitIdentically) {
  Preload(3);
  ServerOptions options;
  options.workers = 4;
  options.max_connections = 4;
  options.max_inflight_advises = 4;
  StartServer(options);

  // Four sessions build the same workload and advise concurrently. The
  // replies must be byte-identical: the shared plan cache may change who
  // computes a plan, never what the plan is.
  constexpr int kSessions = 4;
  std::vector<std::string> replies(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([this, i, &replies] {
      BlockingClient client = Connect();
      Result<std::string> loaded = client.Call("workload xmark");
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      Result<std::string> advised = client.Call("advise 64");
      ASSERT_TRUE(advised.ok()) << advised.status().ToString();
      replies[static_cast<size_t>(i)] = std::move(*advised);
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 1; i < kSessions; ++i) {
    EXPECT_EQ(replies[static_cast<size_t>(i)], replies[0])
        << "session " << i << " diverged";
  }
  EXPECT_EQ(ClassifyResponse(replies[0]), ResponseKind::kOk);
  EXPECT_NE(replies[0].find("Recommended configuration"), std::string::npos);
  // Proof the cache was actually shared: four identical advises can only
  // miss each distinct plan once, so hits must have accrued.
  EXPECT_GT(shared_.what_if_cache.stats().hits, 0u);
}

// Regression: the shared plan cache kept serving plans priced before an
// `insert` changed the collection, so an advise after a write differed
// from what a server that had never seen the old data replies.
TEST_F(ServerTest, InsertThenAdviseMatchesFreshServer) {
  Preload(4);
  StartServer();
  std::vector<std::string> docs;
  Random rng(7);
  for (int i = 0; i < 4; ++i) {
    Document doc =
        GenerateXMarkDocument(shared_.db.mutable_names(), XMarkParams(), &rng);
    docs.push_back(SerializeDocument(doc, shared_.db.names()));
  }

  BlockingClient client = Connect();
  ASSERT_TRUE(client.Call("workload xmark").ok());
  ASSERT_TRUE(client.Call("advise 64").ok());  // Warms the shared cache.
  for (const std::string& xml : docs) {
    Result<std::string> inserted = client.Call("insert xmark " + xml);
    ASSERT_TRUE(inserted.ok());
    ASSERT_EQ(ClassifyResponse(*inserted), ResponseKind::kOk) << *inserted;
  }
  Result<std::string> warm = client.Call("advise 64");
  ASSERT_TRUE(warm.ok());

  SharedState fresh_state;
  ASSERT_TRUE(
      PopulateXMark(&fresh_state.db, "xmark", 4, XMarkParams(), 42).ok());
  ServerOptions options;
  options.tcp_port = 0;
  auto fresh_server = std::make_unique<Server>(&fresh_state, options);
  ASSERT_TRUE(fresh_server->Start().ok());
  Result<BlockingClient> fresh_client =
      BlockingClient::ConnectTcp(fresh_server->port());
  ASSERT_TRUE(fresh_client.ok());
  ASSERT_TRUE(fresh_client->Call("workload xmark").ok());
  for (const std::string& xml : docs) {
    ASSERT_TRUE(fresh_client->Call("insert xmark " + xml).ok());
  }
  Result<std::string> cold = fresh_client->Call("advise 64");
  ASSERT_TRUE(cold.ok());
  fresh_server.reset();

  EXPECT_EQ(ClassifyResponse(*warm), ResponseKind::kOk);
  EXPECT_NE(warm->find("Recommended configuration"), std::string::npos);
  EXPECT_EQ(*warm, *cold);
}

TEST_F(ServerTest, DeadlineExpiredAdviseReturnsFlaggedBestSoFar) {
  Preload(3);
  StartServer();

  // Make every what-if optimization sleep so a 1ms budget is guaranteed
  // to fire mid-search (the deadline_test idiom); kOk = latency only.
  fp::FailSpec slow;
  slow.code = StatusCode::kOk;
  slow.latency_ms = 5;
  fp::ScopedFailpoint armed("advisor.whatif.optimize", slow);

  BlockingClient client = Connect();
  ASSERT_TRUE(client.Call("workload xmark").ok());
  Result<std::string> reply = client.Call("advise --budget-ms 1 64");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  // Anytime contract over the wire: an expired budget is still an OK
  // reply carrying the best-so-far configuration, flagged as degraded.
  EXPECT_EQ(ClassifyResponse(*reply), ResponseKind::kOk);
  EXPECT_NE(reply->find("stop_reason: deadline"), std::string::npos)
      << *reply;
  EXPECT_NE(reply->find("Recommended configuration"), std::string::npos);
}

TEST_F(ServerTest, AdviseDecomposeFlagFlowsThroughDispatcher) {
  Preload(3);
  StartServer();
  BlockingClient client = Connect();
  ASSERT_TRUE(client.Call("workload xmark").ok());

  // --decompose switches the session's advise to atomic-benefit scoring;
  // the report announces the mode and the pricing outcome.
  Result<std::string> decomposed = client.Call("advise --decompose 64");
  ASSERT_TRUE(decomposed.ok()) << decomposed.status().ToString();
  EXPECT_EQ(ClassifyResponse(*decomposed), ResponseKind::kOk);
  EXPECT_NE(decomposed->find("Decomposed scoring:"), std::string::npos)
      << *decomposed;
  EXPECT_NE(decomposed->find("Recommended configuration"), std::string::npos);

  // The flags are mutually exclusive...
  Result<std::string> conflict = client.Call("advise --decompose --exact 64");
  ASSERT_TRUE(conflict.ok());
  EXPECT_NE(conflict->find("mutually exclusive"), std::string::npos);

  // ... and a plain advise on the same session goes back to exact mode
  // (the sticky session option is re-derived per request).
  Result<std::string> exact = client.Call("advise 64");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(ClassifyResponse(*exact), ResponseKind::kOk);
  EXPECT_EQ(exact->find("Decomposed scoring:"), std::string::npos) << *exact;
}

TEST_F(ServerTest, AdviseBusyWhenNoCapacity) {
  Preload(3);
  ServerOptions options;
  options.max_inflight_advises = 0;  // Every advise over capacity.
  StartServer(options);

  BlockingClient client = Connect();
  ASSERT_TRUE(client.Call("workload xmark").ok());
  Result<std::string> reply = client.Call("advise 64");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ClassifyResponse(*reply), ResponseKind::kBusy) << *reply;
  // BUSY is per-request, not per-connection: light verbs still serve.
  Result<std::string> pong = client.Call("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, OkResponse("pong\n"));
}

TEST_F(ServerTest, ConnectionBusyWhenFull) {
  ServerOptions options;
  options.workers = 1;
  options.max_connections = 1;
  StartServer(options);

  BlockingClient first = Connect();
  // A round-trip guarantees the first connection is admitted before the
  // second one races the accept loop.
  ASSERT_TRUE(first.Call("ping").ok());

  BlockingClient second = Connect();
  // Over-admission gets exactly one BUSY frame, then close.
  Result<std::string> busy = second.Receive();
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();
  EXPECT_EQ(ClassifyResponse(*busy), ResponseKind::kBusy);
  EXPECT_FALSE(second.Receive().ok());

  // The admitted connection is unaffected.
  Result<std::string> pong = first.Call("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, OkResponse("pong\n"));
}

TEST_F(ServerTest, AcceptFailpointDropsOneClientNotTheServer) {
  StartServer();

  {
    fp::FailSpec spec;  // kInternal, every hit.
    spec.max_trips = 1;
    fp::ScopedFailpoint armed("server.accept", spec);
    // The connection is accepted by the kernel, then the injected accept
    // fault closes it before a session starts: the client sees EOF on
    // its first read, never a hang.
    BlockingClient dropped = Connect();
    EXPECT_FALSE(dropped.Call("ping").ok());
  }

  // The server survived and serves the next client.
  BlockingClient client = Connect();
  Result<std::string> pong = client.Call("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, OkResponse("pong\n"));
}

TEST_F(ServerTest, ReadFailpointDropsConnectionMidSession) {
  StartServer();

  {
    fp::FailSpec spec;
    spec.max_trips = 1;
    fp::ScopedFailpoint armed("server.read", spec);
    // The read gate is checked before each blocking read, so arming
    // before the connection exists makes the very first read trip: the
    // injected fault closes the connection without a reply.
    BlockingClient victim = Connect();
    EXPECT_FALSE(victim.Call("ping").ok());
  }

  BlockingClient fresh = Connect();
  Result<std::string> pong = fresh.Call("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, OkResponse("pong\n"));
}

TEST_F(ServerTest, OversizedRequestFrameGetsErrThenClose) {
  ServerOptions options;
  options.max_frame_bytes = 64;
  StartServer(options);

  BlockingClient client = Connect();
  ASSERT_TRUE(client.Call("ping").ok());
  // 65-byte command: the client-side encoder is happy, the server-side
  // decoder poisons. One ERR frame comes back, then the close.
  Result<std::string> reply = client.Call(std::string(65, 'x'));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ClassifyResponse(*reply), ResponseKind::kErr);
  EXPECT_FALSE(client.Receive().ok());
}

TEST_F(ServerTest, StopCancelsInflightAdviseAndConnectionsDrain) {
  Preload(3);
  StartServer();

  // Park an advise behind the latency failpoint, stop the server while
  // it runs: the shutdown token turns the search into an anytime wind-
  // down, and Wait() must join without the advise completing naturally.
  fp::FailSpec slow;
  slow.code = StatusCode::kOk;
  slow.latency_ms = 20;
  fp::ScopedFailpoint armed("advisor.whatif.optimize", slow);

  BlockingClient client = Connect();
  ASSERT_TRUE(client.Call("workload xmark").ok());
  ASSERT_TRUE(client.Send("advise 256").ok());
  // Give the request a moment to enter the advisor.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->RequestStop();
  server_->Wait();
  EXPECT_TRUE(server_->shutdown_token().Cancelled());
  EXPECT_EQ(server_->active_connections(), 0);
  server_.reset();
}

// ---------------------------------------------------------------------
// Connection governance: timeouts, idle reaping, health/ready/drain.

TEST_F(ServerTest, EmptyRequestGetsErrAndConnectionSurvives) {
  StartServer();
  BlockingClient client = Connect();
  Result<std::string> reply = client.Call("");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ClassifyResponse(*reply), ResponseKind::kErr);
  EXPECT_NE(reply->find("empty request"), std::string::npos);
  // Whitespace-only is the same well-formed-but-empty case.
  Result<std::string> blank = client.Call("   ");
  ASSERT_TRUE(blank.ok());
  EXPECT_EQ(ClassifyResponse(*blank), ResponseKind::kErr);
  Result<std::string> pong = client.Call("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, OkResponse("pong\n"));
}

TEST_F(ServerTest, StalledMidFrameClientIsDroppedAndWorkerFreed) {
  ServerOptions options;
  options.workers = 1;  // A stalled client would pin the ONLY worker.
  options.max_connections = 2;
  options.io_timeout_ms = 100;
  StartServer(options);
  uint64_t timeouts_before =
      obs::Registry().TakeSnapshot().counter("server.timeouts");

  BlockingClient staller = Connect();
  ASSERT_TRUE(staller.Call("ping").ok());  // Session is live.
  // Stall mid-frame: deliver 6 bytes of a frame whose header announces
  // 100, then go silent past --io-timeout-ms.
  std::string torn = EncodeFrame(std::string(100, 'y'));
  ASSERT_TRUE(staller.SendRaw(torn.substr(0, 6)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // The server dropped the stalled connection (read returns EOF) ...
  EXPECT_FALSE(staller.Receive().ok());
  // ... freed the single worker for other clients ...
  BlockingClient next = Connect();
  Result<std::string> pong = next.Call("ping");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, OkResponse("pong\n"));
  // ... and accounted for it.
  EXPECT_GE(obs::Registry().TakeSnapshot().counter("server.timeouts"),
            timeouts_before + 1);
}

TEST_F(ServerTest, IdleConnectionIsReapedActiveOneIsNot) {
  ServerOptions options;
  options.io_timeout_ms = 50;
  options.idle_timeout_ms = 150;
  StartServer(options);
  uint64_t reaped_before =
      obs::Registry().TakeSnapshot().counter("server.reaped_idle");

  BlockingClient idle = Connect();
  ASSERT_TRUE(idle.Call("ping").ok());
  BlockingClient active = Connect();
  ASSERT_TRUE(active.Call("ping").ok());

  // Stay under the idle bound on one connection, let the other rot.
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Result<std::string> pong = active.Call("ping");
    ASSERT_TRUE(pong.ok()) << "active connection must survive: "
                           << pong.status().ToString();
  }
  // > 400ms idle >> 150ms bound: the idle connection is gone.
  EXPECT_FALSE(idle.Receive().ok());
  EXPECT_GE(obs::Registry().TakeSnapshot().counter("server.reaped_idle"),
            reaped_before + 1);
}

TEST_F(ServerTest, HealthAndReadyAnswerAndTrackServerState) {
  StartServer();
  BlockingClient client = Connect();

  Result<std::string> health = client.Call("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, OkResponse("alive"));

  Result<std::string> ready = client.Call("ready");
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(*ready, OkResponse("ready"));

  // Not-ready (e.g. during recovery): health stays green, ready flips.
  server_->SetReady(false);
  Result<std::string> still_alive = client.Call("health");
  ASSERT_TRUE(still_alive.ok());
  EXPECT_EQ(*still_alive, OkResponse("alive"));
  Result<std::string> not_ready = client.Call("ready");
  ASSERT_TRUE(not_ready.ok());
  EXPECT_EQ(ClassifyResponse(*not_ready), ResponseKind::kErr);
  EXPECT_NE(not_ready->find("recovering"), std::string::npos);
  server_->SetReady(true);
  Result<std::string> again = client.Call("ready");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, OkResponse("ready"));
}

TEST_F(ServerTest, DrainRefusesNewWorkWithGoawayThenExitsCleanly) {
  StartServer();
  uint64_t goaway_before =
      obs::Registry().TakeSnapshot().counter("server.goaway");

  BlockingClient operator_conn = Connect();
  ASSERT_TRUE(operator_conn.Call("ping").ok());

  Result<std::string> drained = operator_conn.Call("drain");
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(ClassifyResponse(*drained), ResponseKind::kOk);
  EXPECT_TRUE(server_->draining());
  EXPECT_FALSE(server_->ready());

  // Observation verbs still answer on the existing connection...
  Result<std::string> stats = operator_conn.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ClassifyResponse(*stats), ResponseKind::kOk);
  // ... real work gets GOAWAY and the connection closes after it.
  Result<std::string> refused = operator_conn.Call("ping");
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(ClassifyResponse(*refused), ResponseKind::kGoaway);
  EXPECT_FALSE(operator_conn.Receive().ok());

  // A brand-new connection gets one GOAWAY frame, then close.
  BlockingClient late = Connect();
  Result<std::string> turned_away = late.Receive();
  ASSERT_TRUE(turned_away.ok()) << turned_away.status().ToString();
  EXPECT_EQ(ClassifyResponse(*turned_away), ResponseKind::kGoaway);
  EXPECT_FALSE(late.Receive().ok());

  EXPECT_GE(obs::Registry().TakeSnapshot().counter("server.goaway"),
            goaway_before + 2);

  // Drain converged: no live connections; shutdown is clean.
  for (int i = 0; i < 100 && server_->active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->active_connections(), 0);
  server_->RequestStop();
  server_->Wait();
  server_.reset();
}

// ---------------------------------------------------------------------
// Dispatcher-level regressions: budget parsing and the db verb. These
// drive CommandDispatcher::Execute directly — no socket needed.

std::string Dispatch(SharedState* shared, ClientSession* session,
                     const std::string& line) {
  CommandDispatcher dispatcher(shared);
  std::ostringstream out;
  dispatcher.Execute(line, session, out);
  return out.str();
}

TEST(DispatcherBudgetTest, JunkBudgetIsRefusedNotHalfParsed) {
  SharedState shared;
  ClientSession session(shared);
  // std::stod("12abc") silently yields 12 and drops "abc" — the old
  // parse advised with that half-read budget. It must be refused whole.
  EXPECT_NE(Dispatch(&shared, &session, "advise 12abc")
                .find("bad budget '12abc'"),
            std::string::npos);
  EXPECT_NE(Dispatch(&shared, &session, "advise nan").find("bad budget"),
            std::string::npos);
  EXPECT_NE(Dispatch(&shared, &session, "advise inf").find("bad budget"),
            std::string::npos);
  EXPECT_NE(Dispatch(&shared, &session, "advise -5").find("bad budget"),
            std::string::npos);
}

TEST(DispatcherBudgetTest, BudgetMsRequiresNonNegativeInteger) {
  SharedState shared;
  ClientSession session(shared);
  const char* kErr = "--budget-ms needs a non-negative integer";
  EXPECT_NE(Dispatch(&shared, &session, "advise --budget-ms abc 64")
                .find(kErr),
            std::string::npos);
  EXPECT_NE(Dispatch(&shared, &session, "advise --budget-ms 2.5 64")
                .find(kErr),
            std::string::npos);
  EXPECT_NE(Dispatch(&shared, &session, "advise --budget-ms -1 64")
                .find(kErr),
            std::string::npos);
  EXPECT_NE(Dispatch(&shared, &session, "advise --budget-ms").find(kErr),
            std::string::npos);
  // `1e3` used to be read by `args >> int64` as 1 with "e3" left over to
  // be misparsed as the space budget; it is exactly 1000 and must pass
  // the budget parse (the reply then complains about the empty
  // workload, not the budget).
  EXPECT_EQ(Dispatch(&shared, &session, "advise --budget-ms 1e3 64")
                .find("budget"),
            std::string::npos);
}

// Every verb row of the table in docs/PROTOCOL.md against the code's
// verb table: for each spelled sub-command, the documented lock,
// admission, draining and retry columns must equal the row
// CommandDispatcher::Lookup finds — and every verb of the code table must
// have a documented row.
TEST(DispatcherLockTest, ProtocolVerbTableMatchesIsExclusiveVerb) {
  std::ifstream doc(XIA_PROTOCOL_DOC);
  ASSERT_TRUE(doc.is_open()) << XIA_PROTOCOL_DOC;
  std::set<std::string> verbs;
  size_t rows = 0;
  bool in_table = false;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("| verb | lock | admission | draining | retry |", 0) ==
        0) {
      in_table = true;
      continue;
    }
    if (!in_table || line.rfind("|---", 0) == 0) continue;
    if (line.rfind("|", 0) != 0) {
      if (rows > 0) break;  // End of the table.
      continue;
    }
    // Cells split on unescaped pipes; `\|` separates alternatives.
    std::vector<std::string> cells;
    std::string cell;
    for (size_t i = 1; i < line.size(); ++i) {
      if (line[i] == '\\' && i + 1 < line.size() && line[i + 1] == '|') {
        cell.push_back('|');
        ++i;
      } else if (line[i] == '|') {
        cells.push_back(std::string(Trim(cell)));
        cell.clear();
      } else {
        cell.push_back(line[i]);
      }
    }
    ASSERT_GE(cells.size(), 5u) << line;
    ++rows;
    // Each `...` spelling in the first cell is "verb [sub|sub ...] ...".
    for (size_t open = cells[0].find('`'); open != std::string::npos;
         open = cells[0].find('`', open + 1)) {
      const size_t close = cells[0].find('`', open + 1);
      ASSERT_NE(close, std::string::npos) << line;
      std::istringstream spelling(cells[0].substr(open + 1, close - open - 1));
      open = close;
      std::string verb;
      std::string sub_token;
      spelling >> verb >> sub_token;
      std::string subs;
      for (char c : sub_token) {
        if (c != '<' && c != '>' && c != '[' && c != ']') subs.push_back(c);
      }
      std::istringstream alternatives(subs);
      std::string sub;
      do {
        sub.clear();
        std::getline(alternatives, sub, '|');
        SCOPED_TRACE(testing::Message() << "`" << verb << " " << sub
                                        << "` documented as: " << line);
        const VerbSpec& spec = CommandDispatcher::Lookup(verb + " " + sub);
        EXPECT_EQ(spec.verb, verb);
        const char* lock = spec.lock == VerbLock::kNone     ? "none"
                           : spec.lock == VerbLock::kShared ? "shared"
                                                            : "exclusive";
        EXPECT_EQ(cells[1], lock);
        EXPECT_EQ(cells[2], spec.admission == VerbAdmission::kAdvise
                                ? "**advise**"
                                : "light");
        EXPECT_EQ(cells[3], spec.while_draining ? "answers" : "GOAWAY");
        EXPECT_EQ(cells[4], spec.retry_safe ? "yes" : "no");
      } while (alternatives.good());
      verbs.insert(verb);
    }
  }
  EXPECT_GE(rows, 30u);
  for (const char* verb : {"savecoll", "loadcoll", "log", "update", "drift"}) {
    EXPECT_EQ(verbs.count(verb), 1u) << verb;
  }
  for (const VerbSpec& spec : CommandDispatcher::Verbs()) {
    EXPECT_EQ(verbs.count(spec.verb), 1u)
        << "verb `" << spec.verb << "` has no row in " << XIA_PROTOCOL_DOC;
  }
}

TEST(DispatcherDbTest, DbVerbWithoutEngineReportsMemoryOnly) {
  SharedState shared;
  ClientSession session(shared);
  EXPECT_EQ(CommandDispatcher::Lookup("db").lock, VerbLock::kExclusive);
  EXPECT_NE(Dispatch(&shared, &session, "db status").find("persistence: off"),
            std::string::npos);
  EXPECT_NE(
      Dispatch(&shared, &session, "db checkpoint").find("persistence: off"),
      std::string::npos);
  EXPECT_NE(Dispatch(&shared, &session, "db frob").find("usage: db"),
            std::string::npos);
}

TEST(DispatcherDbTest, LoadAnalyzeAreWalLoggedAndSurviveKill) {
  namespace fs = std::filesystem;
  fs::path scratch = fs::temp_directory_path() / "xia_server_db_test";
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
            db_dir, &shared->db, &shared->catalog, &shared->buffer_pool,
            shared->default_options.cost_model.storage, no_sync);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    shared->engine = std::move(*opened);
  };

  std::string fingerprint;
  {
    SharedState shared;
    open_into(&shared);
    ClientSession session(shared);
    EXPECT_NE(Dispatch(&shared, &session, "load docs " + xml.string())
                  .find("loaded 1 document"),
              std::string::npos);
    EXPECT_NE(Dispatch(&shared, &session, "analyze docs")
                  .find("statistics rebuilt"),
              std::string::npos);
    std::string status = Dispatch(&shared, &session, "db status");
    EXPECT_NE(status.find("persistence: on"), std::string::npos);
    // create-collection + add-document + analyze = LSNs 1..3.
    EXPECT_NE(status.find("next_lsn: 4"), std::string::npos);
    fingerprint =
        storage::StorageEngine::StateFingerprint(shared.db, shared.catalog);
    // Kill: drop the engine without Close(); the WAL is all that's left.
  }
  {
    SharedState shared;
    open_into(&shared);
    EXPECT_EQ(shared.engine->recovery().wal_records_replayed, 3u);
    EXPECT_EQ(
        storage::StorageEngine::StateFingerprint(shared.db, shared.catalog),
        fingerprint);
    ASSERT_NE(shared.db.GetCollection("docs"), nullptr);
    ClientSession session(shared);
    EXPECT_NE(Dispatch(&shared, &session, "db checkpoint")
                  .find("checkpointed (epoch 2"),
              std::string::npos);
  }
  {
    // After the verb-driven checkpoint a reopen replays nothing — the
    // state comes entirely from the page file.
    SharedState shared;
    open_into(&shared);
    EXPECT_TRUE(shared.engine->recovery().opened_existing);
    EXPECT_EQ(shared.engine->recovery().wal_records_replayed, 0u);
    EXPECT_GT(shared.engine->recovery().pages_read, 0u);
    EXPECT_EQ(
        storage::StorageEngine::StateFingerprint(shared.db, shared.catalog),
        fingerprint);
  }
  fs::remove_all(scratch);
}

// The result-node count of a `run` reply ("-> N result nodes ..."), or -1.
int ResultNodes(const std::string& reply) {
  size_t at = reply.find("-> ");
  return at == std::string::npos ? -1 : std::atoi(reply.c_str() + at + 3);
}

constexpr char kAfricaQuery[] =
    "for $i in doc(\"xmark\")/site/regions/africa/item "
    "where $i/quantity > 5 return $i/name";

// `load` is an insert: a document loaded after `materialize` gets its
// index entries, so the index plan returns what a scan returns.
TEST(DispatcherDbTest, LoadAfterMaterializeIsVisibleToIndexPlans) {
  namespace fs = std::filesystem;
  fs::path scratch = fs::temp_directory_path() / "xia_server_load_test";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  fs::path xml = scratch / "africa.xml";
  {
    std::ofstream file(xml);
    file << "<site><regions><africa>"
            "<item id=\"load1\"><quantity>7</quantity><name>a</name></item>"
            "<item id=\"load2\"><quantity>9</quantity><name>b</name></item>"
            "</africa></regions></site>";
  }
  const std::string run = std::string("run ") + kAfricaQuery;
  auto session_run = [&](bool materialize) {
    SharedState shared;
    ClientSession session(shared);
    Dispatch(&shared, &session, "gen xmark 6");
    if (materialize) {
      Dispatch(&shared, &session, "workload xmark");
      Dispatch(&shared, &session, "advise 512 heuristic");
      EXPECT_NE(Dispatch(&shared, &session, "materialize").find("materialized"),
                std::string::npos);
    }
    EXPECT_EQ(Dispatch(&shared, &session, "load xmark " + xml.string())
                  .find("loaded 1 document"),
              0u);
    return Dispatch(&shared, &session, run);
  };
  const std::string scan = session_run(false);
  const std::string indexed = session_run(true);
  EXPECT_NE(scan.find("Access: COLLECTION SCAN"), std::string::npos) << scan;
  EXPECT_NE(indexed.find("Access: INDEX"), std::string::npos) << indexed;
  EXPECT_EQ(ResultNodes(scan), 38);
  EXPECT_EQ(ResultNodes(indexed), ResultNodes(scan));
  fs::remove_all(scratch);
}

// `update` is only the DML replace: a collection named `insert` (or
// `delete`) is updatable; the workload edit is spelled `updateop`.
TEST(DispatcherDbTest, UpdateOfCollectionNamedInsertIsDml) {
  namespace fs = std::filesystem;
  fs::path scratch = fs::temp_directory_path() / "xia_server_update_test";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  fs::path xml = scratch / "f.xml";
  std::ofstream(xml) << "<a><b>1</b></a>";
  SharedState shared;
  ClientSession session(shared);
  EXPECT_EQ(Dispatch(&shared, &session, "load insert " + xml.string())
                .find("loaded 1 document as doc 0 of insert"),
            0u);
  EXPECT_EQ(Dispatch(&shared, &session, "update insert 0 <a><b>2</b></a>")
                .find("updated doc 1 of insert"),
            0u);
  EXPECT_EQ(Dispatch(&shared, &session, "updateop insert insert 1 /a/b"),
            "added\n");
  EXPECT_EQ(session.workload.updates().size(), 1u);
  fs::remove_all(scratch);
}

// One mutation path: the same scripted session over a memory-only
// SharedState and over one opened on a data directory gives the same
// replies — apart from the checkpoint lines only a persistent engine
// prints, `run`'s measured microseconds, and the process-wide registry
// snapshot EXPLAIN appends (the first session's counters feed the
// second's) — and the same state fingerprint, which a kill and reopen of
// the data directory reproduces.
TEST(DispatcherDbTest, MemoryOnlyAndDataDirSessionsMatch) {
  namespace fs = std::filesystem;
  fs::path scratch = fs::temp_directory_path() / "xia_server_parity_test";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  fs::path xml = scratch / "doc.xml";
  std::ofstream(xml) << "<site><item><price>7</price></item></site>";
  const std::string db_dir = (scratch / "db").string();
  storage::StorageOptions no_sync;
  no_sync.sync = false;
  const std::vector<std::string> script = {
      "gen xmark 4",
      "load docs " + xml.string(),
      "insert docs <site><item><price>9</price></item></site>",
      "update docs 0 <site><item><price>12</price></item></site>",
      "delete docs 1",
      "analyze docs",
      "workload xmark",
      "advise 512 heuristic",
      "materialize",
      std::string("run ") + kAfricaQuery,
  };
  // Drops checkpoint lines and EXPLAIN's STATS block; masks the timing.
  auto normalize = [](const std::string& reply) {
    std::istringstream lines(reply);
    std::string line;
    std::string kept;
    bool in_stats = false;
    while (std::getline(lines, line)) {
      if (line == "  STATS:") {
        in_stats = true;
        continue;
      }
      if (in_stats && line.rfind("    ", 0) == 0) continue;
      in_stats = false;
      if (line.rfind("checkpointed (epoch ", 0) == 0) continue;
      size_t in = line.find(" docs in ");
      size_t us = line.find("us (", in);
      if (line.rfind("-> ", 0) == 0 && in != std::string::npos &&
          us != std::string::npos) {
        line.replace(in + 9, us - in - 9, "<t>");
      }
      kept += line + "\n";
    }
    return kept;
  };
  auto run_script = [&](SharedState* shared, std::vector<std::string>* out) {
    ClientSession session(*shared);
    for (const std::string& line : script) {
      out->push_back(normalize(Dispatch(shared, &session, line)));
    }
  };

  std::vector<std::string> memory_replies;
  std::string memory_fingerprint;
  {
    SharedState shared;
    EXPECT_FALSE(shared.engine->persistent());
    run_script(&shared, &memory_replies);
    memory_fingerprint =
        storage::StorageEngine::StateFingerprint(shared.db, shared.catalog);
  }
  std::vector<std::string> disk_replies;
  {
    SharedState shared;
    Result<std::unique_ptr<storage::StorageEngine>> opened =
        storage::StorageEngine::Open(
            db_dir, &shared.db, &shared.catalog, &shared.buffer_pool,
            shared.default_options.cost_model.storage, no_sync);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    shared.engine = std::move(*opened);
    run_script(&shared, &disk_replies);
    EXPECT_EQ(
        storage::StorageEngine::StateFingerprint(shared.db, shared.catalog),
        memory_fingerprint);
    // Kill: no Close(); the checkpoints and the WAL are all that's left.
  }
  ASSERT_EQ(disk_replies.size(), memory_replies.size());
  for (size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(disk_replies[i], memory_replies[i]) << script[i];
  }
  EXPECT_EQ(memory_replies[1].find("loaded 1 document"), 0u);
  EXPECT_NE(memory_replies[8].find("materialized"), std::string::npos);
  EXPECT_GT(ResultNodes(memory_replies[9]), 0);
  {
    SharedState shared;
    Result<std::unique_ptr<storage::StorageEngine>> opened =
        storage::StorageEngine::Open(
            db_dir, &shared.db, &shared.catalog, &shared.buffer_pool,
            shared.default_options.cost_model.storage, no_sync);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(
        storage::StorageEngine::StateFingerprint(shared.db, shared.catalog),
        memory_fingerprint);
  }
  fs::remove_all(scratch);
}

// Opens a storage engine without fsync on `dir` into `shared`.
Status OpenDataDir(SharedState* shared, const std::string& dir) {
  storage::StorageOptions no_sync;
  no_sync.sync = false;
  Result<std::unique_ptr<storage::StorageEngine>> opened =
      storage::StorageEngine::Open(dir, &shared->db, &shared->catalog,
                                   &shared->buffer_pool,
                                   shared->default_options.cost_model.storage,
                                   no_sync);
  if (!opened.ok()) return opened.status();
  shared->engine = std::move(*opened);
  return Status::Ok();
}

std::string Fingerprint(const SharedState& shared) {
  return storage::StorageEngine::StateFingerprint(shared.db, shared.catalog);
}

// The value of a `db status` line such as "  next_lsn: 17", or -1.
int64_t StatusField(const std::string& reply, const std::string& field) {
  size_t at = reply.find("  " + field + ": ");
  return at == std::string::npos
             ? -1
             : std::atoll(reply.c_str() + at + field.size() + 4);
}

// A `run` reply up to EXPLAIN's process-wide STATS block.
std::string PlanText(const std::string& reply) {
  return reply.substr(0, reply.find("  STATS:"));
}

// A loadcoll that fails part-way still leaves its collection in a
// checkpoint, so an insert logged on top of it replays after a kill.
TEST(DispatcherDbTest, FailedLoadCollLeavesARecoverableCollection) {
  namespace fs = std::filesystem;
  fs::path scratch = fs::temp_directory_path() / "xia_server_loadcoll_test";
  fs::remove_all(scratch);
  fs::create_directories(scratch / "coll");
  std::ofstream(scratch / "coll" / "a.xml") << "<a><b>1</b></a>";
  std::ofstream(scratch / "coll" / "b.xml") << "<a><b>2</b>";
  const std::string db_dir = (scratch / "db").string();
  std::string fingerprint;
  {
    SharedState shared;
    ASSERT_TRUE(OpenDataDir(&shared, db_dir).ok());
    ClientSession session(shared);
    const std::string loaded = Dispatch(
        &shared, &session, "loadcoll docs " + (scratch / "coll").string());
    EXPECT_EQ(loaded.find("ParseError: "), 0u) << loaded;
    EXPECT_EQ(loaded.find('\n'), loaded.size() - 1) << loaded;
    EXPECT_EQ(Dispatch(&shared, &session, "insert docs <a><b>3</b></a>")
                  .find("inserted doc 1 of docs"),
              0u);
    fingerprint = Fingerprint(shared);
    // Kill: no Close().
  }
  SharedState reopened;
  Status status = OpenDataDir(&reopened, db_dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(Fingerprint(reopened), fingerprint);
  fs::remove_all(scratch);
}

// When the checkpoint of a bulk load fails, its collections are on no
// disk: logged verbs are refused until `db checkpoint` puts them there.
TEST(DispatcherDbTest, FailedBulkCheckpointRefusesLoggedVerbsUntilCheckpoint) {
  namespace fs = std::filesystem;
  fp::DisarmAll();
  fs::path scratch = fs::temp_directory_path() / "xia_server_bulk_fail_test";
  fs::remove_all(scratch);
  const std::string db_dir = (scratch / "db").string();
  const std::string insert = "insert xmark <site><regions/></site>";
  std::string fingerprint;
  {
    SharedState shared;
    ASSERT_TRUE(OpenDataDir(&shared, db_dir).ok());
    ClientSession session(shared);
    Dispatch(&shared, &session,
             "failpoint storage.checkpoint.flush=error,trips:1");
    const std::string generated = Dispatch(&shared, &session, "gen xmark 2");
    EXPECT_NE(generated.find("storage.checkpoint.flush"), std::string::npos)
        << generated;
    EXPECT_EQ(generated.find("checkpointed (epoch"), std::string::npos)
        << generated;
    const std::string refused = Dispatch(&shared, &session, insert);
    EXPECT_NE(refused.find("`db checkpoint`"), std::string::npos) << refused;
    EXPECT_EQ(refused.find("inserted"), std::string::npos) << refused;
    EXPECT_EQ(Dispatch(&shared, &session, "db checkpoint")
                  .find("checkpointed (epoch"),
              0u);
    EXPECT_EQ(Dispatch(&shared, &session, insert).find("inserted doc 2 of xmark"),
              0u);
    fingerprint = Fingerprint(shared);
    // Kill: no Close().
  }
  fp::DisarmAll();
  SharedState reopened;
  Status status = OpenDataDir(&reopened, db_dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reopened.engine->recovery().wal_records_replayed, 1u);
  EXPECT_EQ(Fingerprint(reopened), fingerprint);
  fs::remove_all(scratch);
}

// `materialize` is one logged CREATE INDEX per recommended index: no
// checkpoint, exactly the `ddl` statements in the catalog, and a kill
// replays them into the same plans.
TEST(DispatcherDbTest, MaterializeIsLoggedAndBuildsTheRecommendation) {
  namespace fs = std::filesystem;
  fs::path scratch = fs::temp_directory_path() / "xia_server_materialize_test";
  fs::remove_all(scratch);
  const std::string db_dir = (scratch / "db").string();
  const std::string run = std::string("run ") + kAfricaQuery;
  std::string materialized;
  std::string fingerprint;
  std::string plan;
  std::optional<Recommendation> advised;
  {
    SharedState shared;
    ASSERT_TRUE(OpenDataDir(&shared, db_dir).ok());
    ClientSession session(shared);
    Dispatch(&shared, &session, "gen xmark 4");
    Dispatch(&shared, &session, "workload xmark");
    Dispatch(&shared, &session, "advise 512 heuristic");
    const std::string before = Dispatch(&shared, &session, "db status");
    materialized = Dispatch(&shared, &session, "materialize");
    EXPECT_EQ(materialized.find("materialized 15 indexes ("), 0u)
        << materialized;
    const std::string after = Dispatch(&shared, &session, "db status");
    EXPECT_GT(StatusField(before, "epoch"), 0);
    EXPECT_EQ(StatusField(after, "epoch"), StatusField(before, "epoch"));
    EXPECT_EQ(StatusField(after, "next_lsn"),
              StatusField(before, "next_lsn") + 15);

    std::set<std::string> ddl;
    std::istringstream script(Dispatch(&shared, &session, "ddl"));
    for (std::string line; std::getline(script, line);) {
      if (line.rfind("--", 0) != 0) ddl.insert(line.substr(0, line.size() - 1));
    }
    std::set<std::string> catalog;
    std::istringstream listed(Dispatch(&shared, &session, "show catalog"));
    for (std::string line; std::getline(listed, line);) {
      catalog.insert(line.substr(2));
    }
    EXPECT_EQ(ddl.size(), 15u);
    EXPECT_EQ(catalog, ddl);
    EXPECT_EQ(shared.catalog.size(), 15u);

    const std::string ran = Dispatch(&shared, &session, run);
    EXPECT_NE(ran.find("Access: INDEX"), std::string::npos) << ran;
    EXPECT_EQ(ResultNodes(ran), 24);
    plan = PlanText(ran);
    fingerprint = Fingerprint(shared);
    advised = session.recommendation;
    // Kill: no Close().
  }
  SharedState reopened;
  Status status = OpenDataDir(&reopened, db_dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reopened.engine->recovery().wal_records_replayed, 15u);
  EXPECT_EQ(Fingerprint(reopened), fingerprint);
  ClientSession session(reopened);
  const std::string ran = Dispatch(&reopened, &session, run);
  EXPECT_EQ(PlanText(ran), plan);
  EXPECT_EQ(ResultNodes(ran), 24);
  // Materializing the same recommendation again renames the taken names
  // and builds every index a second time.
  session.recommendation = advised;
  EXPECT_EQ(Dispatch(&reopened, &session, "materialize"), materialized);
  EXPECT_EQ(reopened.catalog.size(), 30u);
  fs::remove_all(scratch);
}

// `--preload` and `gen` generate through one recipe.
TEST(DispatcherDbTest, PreloadAndGenGenerateTheSameData) {
  SharedState preloaded;
  ASSERT_TRUE(Preload(&preloaded, {"xmark:4", "tpox"}).ok());
  SharedState generated;
  ClientSession session(generated);
  EXPECT_EQ(Dispatch(&generated, &session, "gen xmark 4").find("generated"),
            0u);
  EXPECT_EQ(Dispatch(&generated, &session, "gen tpox").find("generated"), 0u);
  EXPECT_EQ(Fingerprint(preloaded), Fingerprint(generated));
  EXPECT_EQ(preloaded.db.CollectionNames().size(), 4u);

  SharedState bad;
  for (const char* spec : {"xmark:0", "tpcc"}) {
    EXPECT_EQ(Preload(&bad, {"xmark:2", spec}).code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
  EXPECT_TRUE(bad.db.CollectionNames().empty());
}

}  // namespace
}  // namespace server
}  // namespace xia
