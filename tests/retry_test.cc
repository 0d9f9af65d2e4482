// xia retry layer + RetryingClient. Covers the retryable-status
// classifier, deterministic jittered backoff (two states with equal
// seeds draw identical schedules), attempt/budget exhaustion, the
// idempotency classifier for wire commands, and the RetryingClient
// against a live server: connect-retry while the server starts late,
// transparent reconnect with prologue replay after the server closes a
// session, and BUSY-exhaustion giving up with the last verdict.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "server/retrying_client.h"
#include "server/server.h"
#include "server/session.h"

namespace xia {
namespace {

TEST(RetryPolicyTest, ClassifierRetryableCodes) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Unavailable("reset")));
  EXPECT_TRUE(
      RetryPolicy::IsRetryable(Status::ResourceExhausted("server busy")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Ok()));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::InvalidArgument("bad")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Internal("bug")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::NotFound("gone")));
}

TEST(RetryStateTest, BackoffGrowsExponentiallyAndClamps) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 50;
  policy.jitter = 0;  // Exact values without jitter.
  RetryState state(policy);
  EXPECT_EQ(state.DrawBackoffMillis(0), 10);
  EXPECT_EQ(state.DrawBackoffMillis(1), 20);
  EXPECT_EQ(state.DrawBackoffMillis(2), 40);
  EXPECT_EQ(state.DrawBackoffMillis(3), 50);  // Clamped.
  EXPECT_EQ(state.DrawBackoffMillis(9), 50);
}

TEST(RetryStateTest, JitterIsDeterministicPerSeedAndBounded) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 100;
  policy.max_backoff_ms = 100000;
  policy.jitter = 0.2;
  policy.jitter_seed = 7;

  RetryState a(policy);
  RetryState b(policy);
  std::vector<int64_t> draws_a;
  for (int i = 0; i < 8; ++i) {
    int64_t draw = a.DrawBackoffMillis(i);
    draws_a.push_back(draw);
    // Within [1 - j, 1 + j] of the un-jittered backoff.
    int64_t base = 100LL << i;
    EXPECT_GE(draw, static_cast<int64_t>(base * 0.8) - 1) << "retry " << i;
    EXPECT_LE(draw, static_cast<int64_t>(base * 1.2) + 1) << "retry " << i;
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(b.DrawBackoffMillis(i), draws_a[static_cast<size_t>(i)])
        << "same seed must replay the same schedule";
  }

  policy.jitter_seed = 8;
  RetryState c(policy);
  bool diverged = false;
  for (int i = 0; i < 8; ++i) {
    diverged |= c.DrawBackoffMillis(i) != draws_a[static_cast<size_t>(i)];
  }
  EXPECT_TRUE(diverged) << "different seeds should draw different jitter";
}

TEST(RetryStateTest, PermanentErrorRefusedImmediately) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_ms = 1;
  RetryState state(policy);
  EXPECT_FALSE(state.NextAttempt(Status::InvalidArgument("no")));
  EXPECT_EQ(state.attempts(), 1);
}

TEST(RetryStateTest, MaxAttemptsBoundsTheLoop) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.jitter = 0;
  RetryState state(policy);
  EXPECT_TRUE(state.NextAttempt(Status::Unavailable("x")));
  EXPECT_TRUE(state.NextAttempt(Status::Unavailable("x")));
  EXPECT_FALSE(state.NextAttempt(Status::Unavailable("x")));
  EXPECT_EQ(state.attempts(), 3);
}

TEST(RetryStateTest, OverallBudgetStopsRetrying) {
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_ms = 30;
  policy.backoff_multiplier = 1.0;
  policy.jitter = 0;
  policy.overall_budget_ms = 50;
  RetryState state(policy);
  auto started = std::chrono::steady_clock::now();
  int granted = 0;
  while (state.NextAttempt(Status::Unavailable("x"))) ++granted;
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - started)
                        .count();
  // 30ms backoffs under a 50ms budget: one full sleep, maybe a truncated
  // second, never the unbounded attempt count.
  EXPECT_GE(granted, 1);
  EXPECT_LE(granted, 3);
  EXPECT_LT(elapsed_ms, 500);
}

TEST(RetryStateTest, AttemptDeadlineTracksTighterBudget) {
  RetryPolicy policy;
  policy.attempt_budget_ms = 1000;
  policy.overall_budget_ms = 0;
  RetryState unbounded_overall(policy);
  int64_t remaining = unbounded_overall.AttemptDeadline().RemainingMillis();
  EXPECT_GT(remaining, 0);
  EXPECT_LE(remaining, 1000);

  policy.attempt_budget_ms = 1000;
  policy.overall_budget_ms = 20;
  RetryState tight_overall(policy);
  EXPECT_LE(tight_overall.AttemptDeadline().RemainingMillis(), 20);
}

// ---------------------------------------------------------------------
// Idempotency classification of wire commands.

TEST(IdempotencyTest, ReadOnlyAndSessionLocalVerbsAreRetryable) {
  using server::RetryingClient;
  for (const char* line :
       {"ping", "help", "health", "ready", "stats", "show catalog",
        "run /site/item", "enumerate /a/b", "advise 64",
        "workload xmark", "query 1.0 /a", "whatif start", "drain",
        "db status", "log stats", "drift check", "failpoint list",
        "failpoint", "quit", "PING", "Advise --decompose 64"}) {
    EXPECT_TRUE(RetryingClient::IsIdempotentCommand(line)) << line;
  }
}

TEST(IdempotencyTest, SharedStateMutationsAreNotRetryable) {
  using server::RetryingClient;
  for (const char* line :
       {"gen xmark 4", "load docs /tmp/x.xml", "loadcoll docs /tmp/d",
        "savecoll docs /tmp/d", "analyze docs", "materialize",
        "capture on", "log clear", "log save /tmp/l", "drift readvise",
        "db checkpoint", "failpoint server.read=error:Internal"}) {
    EXPECT_FALSE(RetryingClient::IsIdempotentCommand(line)) << line;
  }
}

TEST(IdempotencyTest, DmlVerbsAreNotRetryableButWorkloadUpdateIs) {
  using server::RetryingClient;
  // The DML verbs mutate documents: a re-sent insert appends a second
  // document under a new DocId, so an ambiguous transport failure must
  // never be retried.
  for (const char* line :
       {"insert docs <site><item/></site>", "delete docs 3",
        "update docs 3 <site><item/></site>", "INSERT docs <a/>",
        "Update docs 0 <a/>", "update insert 0 <a/>"}) {
    EXPECT_FALSE(RetryingClient::IsIdempotentCommand(line)) << line;
  }
  // The session-workload editor only touches per-connection state that
  // is lost on reconnect anyway.
  for (const char* line :
       {"updateop insert 2.0 /site/item", "updateop delete 3",
        "UPDATEOP INSERT 1.0 /a/b"}) {
    EXPECT_TRUE(RetryingClient::IsIdempotentCommand(line)) << line;
  }
}

// ---------------------------------------------------------------------
// RetryingClient against a live server.

RetryPolicy FastPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 50;
  policy.jitter = 0;
  return policy;
}

TEST(RetryingClientTest, ConnectRetriesUntilLateServerArrives) {
  // The client knocks on a unix socket whose server binds ~80ms later:
  // the connect failures are kUnavailable, absorbed by the policy.
  std::string path =
      (std::filesystem::temp_directory_path() / "xia_retry_late.sock")
          .string();
  std::filesystem::remove(path);

  server::SharedState shared;
  server::ServerOptions options;
  options.unix_socket_path = path;
  std::unique_ptr<server::Server> srv;
  std::thread late_starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    srv = std::make_unique<server::Server>(&shared, options);
    ASSERT_TRUE(srv->Start().ok());
  });

  server::RetryingClient client(path, FastPolicy());
  Result<std::string> reply = client.Call("ping");
  late_starter.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(server::ClassifyResponse(*reply), server::ResponseKind::kOk);
  EXPECT_GE(client.retries(), 1u);
  EXPECT_EQ(client.giveups(), 0u);
  client.Close();
  srv.reset();
  std::filesystem::remove(path);
}

TEST(RetryingClientTest, ReconnectReplaysPrologueAfterServerClosesSession) {
  server::SharedState shared;
  server::ServerOptions options;
  options.tcp_port = 0;
  server::Server srv(&shared, options);
  ASSERT_TRUE(srv.Start().ok());

  server::RetryingClient client(srv.port(), FastPolicy());
  client.set_prologue({"workload xmark"});
  Result<std::string> first = client.Call("show workload");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NE(first->find("queries"), std::string::npos) << *first;

  // `quit` makes the server close this session. The next idempotent call
  // hits the dead socket, reconnects, replays the prologue — so the new
  // session still has its workload — and succeeds.
  ASSERT_TRUE(client.Call("quit").ok());
  Result<std::string> after = client.Call("show workload");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after->find("queries"), std::string::npos) << *after;
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GE(client.retries(), 1u);
  EXPECT_EQ(client.giveups(), 0u);
}

TEST(RetryingClientTest, BusyForeverExhaustsPolicyAndGivesUp) {
  server::SharedState shared;
  server::ServerOptions options;
  options.tcp_port = 0;
  options.max_inflight_advises = 0;  // Every advise is BUSY.
  server::Server srv(&shared, options);
  ASSERT_TRUE(srv.Start().ok());

  RetryPolicy policy = FastPolicy();
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  server::RetryingClient client(srv.port(), policy);
  Result<std::string> reply = client.Call("advise 64");
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(client.retries(), 2u);  // 3 attempts = 2 retries.
  EXPECT_EQ(client.giveups(), 1u);

  // The give-up is per-call, not per-client: light verbs still work.
  Result<std::string> pong = client.Call("ping");
  ASSERT_TRUE(pong.ok());
}

TEST(RetryingClientTest, NonIdempotentVerbFailsFastAfterSend) {
  server::SharedState shared;
  server::ServerOptions options;
  options.tcp_port = 0;
  server::Server srv(&shared, options);
  ASSERT_TRUE(srv.Start().ok());

  server::RetryingClient client(srv.port(), FastPolicy());
  ASSERT_TRUE(client.Call("ping").ok());
  // Stop the server under the client's feet: the mutation's transport
  // failure is ambiguous (it may have executed), so no retry happens.
  srv.RequestStop();
  srv.Wait();
  Result<std::string> reply = client.Call("gen xmark 2");
  EXPECT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("not idempotent"),
            std::string::npos)
      << reply.status().ToString();
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_EQ(client.giveups(), 1u);
}

TEST(RetryingClientTest, DmlVerbFailsFastAfterSend) {
  server::SharedState shared;
  server::ServerOptions options;
  options.tcp_port = 0;
  server::Server srv(&shared, options);
  ASSERT_TRUE(srv.Start().ok());

  server::RetryingClient client(srv.port(), FastPolicy());
  ASSERT_TRUE(client.Call("ping").ok());
  // A DML insert whose reply is lost may already have appended a
  // document server-side; the client must give up, not re-send.
  srv.RequestStop();
  srv.Wait();
  Result<std::string> reply =
      client.Call("insert docs <site><item/></site>");
  EXPECT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("not idempotent"),
            std::string::npos)
      << reply.status().ToString();
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_EQ(client.giveups(), 1u);
}

}  // namespace
}  // namespace xia
