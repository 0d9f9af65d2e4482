#ifndef XIA_SERVER_SESSION_H_
#define XIA_SERVER_SESSION_H_

#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/whatif.h"
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
/// Concurrency contract: CommandDispatcher::Execute takes `mu` as the
/// verb's row says (VerbSpec::lock) — shared for read-only verbs and
/// exclusive for verbs that mutate the database, catalog, storage engine,
/// or the capture/drift machinery, so any number of sessions
/// may run/advise/explain concurrently while `gen`/`load`/`analyze`/
/// `materialize`/`capture`/`drift` serialize against them. The caches
/// (`containment`, `what_if_cache`, `buffer_pool`) are internally
/// thread-safe and shared by design: one session's advise warms the
/// plan cache every other session hits.
struct SharedState {
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
  /// Process-wide capture sink target. Created on first `capture on`;
  /// kept for the SharedState's lifetime so `log stats` and
  /// `advise --from-log` survive `capture off`.
  std::unique_ptr<wlm::QueryLog> capture_log;
  std::unique_ptr<wlm::DriftMonitor> drift;
  /// Storage engine over db/catalog (storage/storage_engine.h), never
  /// null: every mutating verb reaches db/catalog only through it.
  /// Memory-only unless the process opens one on --data-dir; then
  /// load/insert/delete/update/analyze and each index `materialize`
  /// builds append WAL records, gen/loadcoll/--preload are bulk loads
  /// that checkpoint once, and startup recovers the previous run's state.
  /// Guarded by `mu` like the db/catalog it persists.
  std::unique_ptr<storage::StorageEngine> engine =
      storage::StorageEngine::MemoryOnly(&db, &catalog,
                                         default_options.cost_model.storage);

  /// Reader/writer lock over db/catalog/capture_log/drift (see above).
  std::shared_mutex mu;
  /// Serializes lazy drift-monitor creation and prediction recording
  /// from concurrent `advise` verbs (which hold `mu` only shared).
  std::mutex drift_mu;

  /// The lazily-created drift monitor. Callers must hold `drift_mu`.
  wlm::DriftMonitor* DriftWatcher();
};

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

/// How a verb holds SharedState::mu.
enum class VerbLock {
  kNone,       // Touches no shared state: answers even while recovery
               // holds the state exclusively.
  kShared,     // Reader lock: any number run concurrently.
  kExclusive,  // Writer lock: mutates the database, catalog, capture or
               // drift machinery, or the storage engine.
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
