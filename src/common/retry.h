#ifndef XIA_COMMON_RETRY_H_
#define XIA_COMMON_RETRY_H_

#include <cstdint>
#include <random>

#include "common/deadline.h"
#include "common/status.h"

namespace xia {

/// xia retry layer — the reusable "try again later" discipline.
///
/// A RetryPolicy describes how a caller should respond to transient
/// failures: how many attempts, how long to back off between them
/// (exponential with deterministic seeded jitter, so tests and chaos
/// schedules replay bit-identically), how much wall clock one attempt
/// may consume, and how much the whole call may. The status classifier
/// is fixed and shared: kUnavailable (connection reset/refused, I/O
/// timeout, server going away) and kResourceExhausted (BUSY admission
/// rejections) are retryable; every other code is a permanent verdict —
/// retrying an InvalidArgument forever is how systems melt down.
///
/// Callers drive it through RetryState, one per logical call:
///
///   RetryState retry(policy);
///   Status last;
///   do {
///     last = Attempt(retry.AttemptDeadline());
///     if (last.ok()) return last;
///   } while (retry.NextAttempt(last));
///   return last;  // Exhausted: attempts, budget, or permanent error.
///
/// NextAttempt() is where the whole policy lives: it refuses permanent
/// errors, refuses once max_attempts is reached or the overall deadline
/// cannot fit another backoff, and otherwise SLEEPS the jittered
/// backoff and returns true. Determinism: the backoff sequence is a
/// pure function of (policy, seed), so two RetryStates with equal
/// seeds sleep identical schedules.
struct RetryPolicy {
  /// Total tries, including the first. Minimum 1.
  int max_attempts = 5;
  /// Backoff before the first retry (after the first failure).
  int64_t initial_backoff_ms = 10;
  /// Backoff growth per retry.
  double backoff_multiplier = 2.0;
  /// Backoff ceiling.
  int64_t max_backoff_ms = 2000;
  /// Uniform jitter: each backoff is scaled by a factor drawn from
  /// [1 - jitter, 1 + jitter]. 0 disables jitter entirely.
  double jitter = 0.2;
  /// Seed for the jitter stream (deterministic per RetryState).
  uint64_t jitter_seed = 42;
  /// Wall-clock budget for ONE attempt; 0 = unbounded. Transport
  /// clients map this onto their socket receive timeout.
  int64_t attempt_budget_ms = 0;
  /// Wall-clock budget for the WHOLE call (all attempts + backoffs);
  /// 0 = unbounded.
  int64_t overall_budget_ms = 0;

  /// The shared retryable-status classifier (see file comment).
  static bool IsRetryable(const Status& status) {
    return status.code() == StatusCode::kUnavailable ||
           status.code() == StatusCode::kResourceExhausted;
  }
};

/// Per-call retry bookkeeping over a RetryPolicy: attempt counting, the
/// overall deadline, and the deterministic jitter stream.
class RetryState {
 public:
  explicit RetryState(const RetryPolicy& policy);

  /// Decides whether another attempt may run after `last_error`, and if
  /// so sleeps the backoff first. Returns false — without sleeping —
  /// when the error is permanent (not IsRetryable), attempts are
  /// exhausted, or the overall deadline has expired. The backoff sleep
  /// is truncated to the overall deadline's remaining budget.
  bool NextAttempt(const Status& last_error);

  /// The deadline one attempt should run under: the tighter of the
  /// per-attempt budget (from now) and the overall deadline.
  Deadline AttemptDeadline() const;

  /// Attempts started so far (1 after the first attempt begins; callers
  /// increment implicitly via NextAttempt).
  int attempts() const { return attempts_; }

  /// The backoff that WOULD precede retry number `retry_index` (0-based:
  /// the sleep after the first failure), advancing the jitter stream.
  /// Exposed for tests and for schedulers that sleep on their own clock;
  /// NextAttempt draws from the same stream.
  int64_t DrawBackoffMillis(int retry_index);

 private:
  RetryPolicy policy_;
  Deadline overall_;
  int attempts_ = 1;  // The first attempt is underway once state exists.
  std::mt19937_64 jitter_engine_;
};

}  // namespace xia

#endif  // XIA_COMMON_RETRY_H_
