#ifndef XIA_SERVER_SESSION_H_
#define XIA_SERVER_SESSION_H_

#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/whatif.h"
#include "common/rw_lock.h"
#include "index/catalog.h"
#include "optimizer/cost_cache.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/storage_engine.h"
#include "wlm/capture.h"
#include "wlm/drift.h"
#include "workload/workload.h"
#include "xpath/containment.h"

namespace xia {
namespace server {

/// xia::server command layer — the advisor shell's verbs, extracted so
/// the interactive REPL (examples/advisor_shell.cpp) and the network
/// server (server/server.h) execute byte-identical commands against the
/// same state shapes. The REPL is one ClientSession over a private
/// SharedState; the server is many concurrent ClientSessions over one.

/// Everything every session sees: the database, the physical catalog,
/// the caches that make repeated advising cheap, and the workload-
/// management machinery. One instance per process (server) or per REPL.
///
/// Concurrency contract: CommandDispatcher::Execute takes the locks the
/// verb's row says (VerbSpec::lock), always in the order `write_mu` →
/// `mu` → `drift_mu`. Read-only verbs hold `mu` shared, so any number of
/// sessions run/advise/explain concurrently. Every mutating verb holds
/// `write_mu`, so mutations run one at a time. The logged mutations
/// (`write` rows: the DML verbs, `load`, `analyze`, `materialize`, `db`)
/// hold nothing else: `engine` parses, builds and fsyncs beside the
/// readers and takes `mu` exclusively only to apply in memory (its
/// attached apply lock), so a write is durable before it is visible.
/// `gen`/`loadcoll`/`capture`/`drift` also hold `mu` exclusively for the
/// whole verb. The caches (`containment`, `what_if_cache`,
/// `buffer_pool`) are internally thread-safe and shared by design: one
/// session's advise warms the plan cache every other session hits.
struct SharedState {
  /// Attaches `mu` to the memory-only `engine` as its apply lock.
  SharedState();

  Database db;
  Catalog catalog;
  /// Template for new sessions' AdvisorOptions (thread knob, time
  /// budget, cost model). Copied at session creation; never mutated by
  /// verbs afterwards.
  AdvisorOptions default_options;
  ContainmentCache containment;
  /// What-if plan cache shared by every session's `advise` (via
  /// AdvisorOptions::shared_cost_cache). Safe to share: keys pin every
  /// optimizer input — the query, its collection's state, and the
  /// relevant catalog entries — so equal keys imply bit-identical plans
  /// no matter which session, workload, or data state inserted them.
  WhatIfCostCache what_if_cache;
  /// Shared page cache for `run` executions (warm across sessions).
  BufferPool buffer_pool{4096};
  /// This state's workload capture log. Created by the first ArmCapture
  /// and kept for the SharedState's lifetime, so `log stats` and
  /// `advise --from-log` survive `capture off`.
  std::unique_ptr<wlm::QueryLog> capture_log;
  /// While set, `run` appends each successful execution and the DML
  /// verbs each applied mutation to `capture_log` (never null then).
  /// Set by ArmCapture, cleared by `capture off`.
  bool capture_armed = false;
  std::unique_ptr<wlm::DriftMonitor> drift;
  /// Storage engine over db/catalog (storage/storage_engine.h), never
  /// null: every mutating verb reaches db/catalog only through it.
  /// Memory-only unless the process opens one on --data-dir; then
  /// load/insert/delete/update/analyze and each index `materialize`
  /// builds append WAL records, gen/loadcoll/--preload are bulk loads
  /// that checkpoint once, and startup recovers the previous run's state.
  /// Called under `write_mu`. An engine installed here applies under
  /// `mu` once it is attached (AttachApplyLock(&mu)); until then the
  /// `write` rows hold `mu` exclusively for the whole verb.
  std::unique_ptr<storage::StorageEngine> engine =
      storage::StorageEngine::MemoryOnly(&db, &catalog,
                                         default_options.cost_model.storage);

  /// Serializes mutations: every mutating verb holds it, and shutdown
  /// holds it across the engine's Close(). Never taken while holding `mu`.
  std::mutex write_mu;
  /// Reader/writer lock over db/catalog/capture/drift (see above). It
  /// prefers writers, so an apply waiting for the readers in flight is
  /// not starved by new ones.
  RwLock mu;
  /// Serializes lazy drift-monitor creation and prediction recording
  /// from concurrent `advise` verbs (which hold `mu` only shared).
  std::mutex drift_mu;

  /// The lazily-created drift monitor. Callers must hold `drift_mu`.
  wlm::DriftMonitor* DriftWatcher();

  /// Arms capture (`capture on`, the --capture flags), creating
  /// `capture_log` with `capacity` records unless an earlier arming did.
  /// Callers hold `write_mu` and `mu` exclusively or own the state alone.
  void ArmCapture(size_t capacity);
};

/// The record count `capture on` and the --capture flags arm with when
/// none is given.
constexpr size_t kDefaultCaptureCapacity = 4096;

/// A capture capacity as `capture on <capacity>` and `--capture
/// <capacity>` spell it: a positive decimal integer; nullopt otherwise.
std::optional<size_t> ParseCaptureCapacity(std::string_view text);

/// Generates xia_server's `--preload` specs (`xmark[:docs]` or `tpox`,
/// the data `gen xmark <docs>` and `gen tpox` create) as one bulk load of
/// `shared->engine`, so a persistent engine checkpoints once. A bad spec
/// is InvalidArgument, before anything is generated.
Status Preload(SharedState* shared, const std::vector<std::string>& specs);

/// Per-session state: the hand-built workload, the last recommendation,
/// and the interactive what-if overlay. Sessions are single-threaded
/// (one command at a time per connection / per REPL).
struct ClientSession {
  explicit ClientSession(const SharedState& shared)
      : options(shared.default_options) {}

  AdvisorOptions options;  // Per-session copy (budget, algorithm, ...).
  Workload workload;
  std::optional<Recommendation> recommendation;
  std::optional<WhatIfSession> whatif;
};

/// What Execute() decided about a command line.
enum class CommandOutcome {
  kHandled,  // Executed (successfully or not); reply text written.
  kRefused,  // A serving verb declined (`ready` while not ready); the
             // reply text is the reason.
  kQuit,     // `quit` / `exit`: close the session.
};

/// How a verb holds SharedState's locks. Execute records each verb's
/// wait for them in the `server.lock_wait.<shared|write|exclusive>`
/// histograms.
enum class VerbLock {
  kNone,       // Touches no shared state: answers even while recovery
               // holds the state exclusively.
  kShared,     // `mu` shared: any number run concurrently.
  kWrite,      // `write_mu` only: a logged mutation whose engine takes
               // `mu` exclusively around each in-memory apply.
  kExclusive,  // `write_mu`, then `mu` exclusively: mutates the database
               // or catalog outside the engine's logged path (bulk
               // loads), or the capture or drift machinery.
};

/// Admission class: kAdvise verbs run the advisor pipeline and count
/// against the server's max-in-flight-advises bound.
enum class VerbAdmission { kLight, kAdvise };

struct VerbCall;

/// One row of the verb table (CommandDispatcher::Verbs): everything the
/// dispatcher, the server, the retrying client and `help` know about a
/// (verb, sub-verb). docs/PROTOCOL.md lists the same rows.
struct VerbSpec {
  const char* verb = "";
  /// The second token this row is for. "*" covers every second token
  /// (none included) that no other row of the verb names.
  const char* sub = "*";
  VerbLock lock = VerbLock::kShared;
  VerbAdmission admission = VerbAdmission::kLight;
  /// Safe to re-send after an ambiguous transport failure: the verb only
  /// reads, or only touches session state a reconnect loses anyway.
  bool retry_safe = false;
  /// Still answered while the server drains; others get GOAWAY.
  bool while_draining = false;
  /// The `help` line; empty when another row of the verb carries it.
  const char* usage = "";
  void (*handler)(VerbCall& call) = nullptr;
};

/// What the serving verbs `ready` and `drain` ask of the process hosting
/// the dispatcher. Without a host (the REPL) the dispatcher is ready by
/// construction and has nothing to drain.
class ServingHost {
 public:
  /// Why the host cannot take real work now; empty when it can.
  virtual std::string NotReadyReason() const = 0;
  /// Enters lame-duck mode. Idempotent.
  virtual void Drain() = 0;

 protected:
  ~ServingHost() = default;
};

class CommandDispatcher {
 public:
  /// `shared` (and `host`, when given) must outlive the dispatcher.
  explicit CommandDispatcher(SharedState* shared,
                             ServingHost* host = nullptr)
      : shared_(shared), host_(host) {}

  /// Executes one command line for `session`, writing the reply to
  /// `out`, under the lock its verb row names. Unknown verbs report an
  /// error message but are kHandled.
  CommandOutcome Execute(const std::string& line, ClientSession* session,
                         std::ostream& out);

  /// The verb table, in `help` order.
  static const std::vector<VerbSpec>& Verbs();

  /// The row for `line`'s first two tokens (case-insensitive): an exact
  /// sub-verb row, else the verb's "*" row, else the unknown-verb row
  /// (verb "unknown", which no command line spells).
  static const VerbSpec& Lookup(const std::string& line);

 private:
  SharedState* shared_;
  ServingHost* host_;
};

}  // namespace server
}  // namespace xia

#endif  // XIA_SERVER_SESSION_H_
