#ifndef XIA_STORAGE_PATH_SYNOPSIS_H_
#define XIA_STORAGE_PATH_SYNOPSIS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "storage/collection.h"
#include "storage/statistics.h"
#include "xml/name_table.h"
#include "xpath/path.h"

namespace xia {

/// One distinct root-to-node label path of the data (a DataGuide node),
/// with instance counts and value statistics.
struct SynopsisNode {
  NameId name = kNoName;
  bool is_attr = false;
  uint16_t depth = 0;
  uint64_t count = 0;             // Instances of this path.
  uint64_t value_count = 0;       // Instances carrying a (text) value.
  uint64_t numeric_count = 0;
  double min_num = 0.0;
  double max_num = 0.0;
  double total_value_bytes = 0.0;
  std::vector<std::string> sample;  // Reservoir sample of values.
  uint64_t sample_seen = 0;
  std::vector<std::string> distinct_probe;  // Capped distinct tracker.
  SynopsisNode* parent = nullptr;
  std::vector<std::unique_ptr<SynopsisNode>> children;

  /// The path string of this synopsis node, e.g. "/site/regions/africa".
  std::string PathString(const NameTable& names) const;
};

/// DataGuide-style path synopsis: a trie of every distinct root-to-node
/// path in a collection, annotated with counts and value statistics.
///
/// This is the statistics backbone of the whole stack. Running a pattern's
/// NFA down the trie yields (a) the pattern's cardinality — the node count
/// of a virtual index, hence its size estimate — and (b) aggregated value
/// statistics for predicate selectivity. The paper's advisor gets both
/// from DB2's statistics; we get them here.
class PathSynopsis {
 public:
  explicit PathSynopsis(const NameTable* names);

  PathSynopsis(PathSynopsis&&) = default;
  PathSynopsis& operator=(PathSynopsis&&) = default;

  /// Folds one document into the synopsis. Also the incremental-insert
  /// maintenance path (src/dml): counts, value statistics, reservoir
  /// samples, and distinct probes all update exactly as during a full
  /// build, and the estimator memos are invalidated, so post-insert
  /// estimates see the new data without a full Analyze.
  ///
  /// Mutations require exclusive access (the storage engine's apply
  /// lock): concurrent const estimator calls are only safe between
  /// mutations, and AggregateValues references are invalidated by them.
  void AddDocument(const Document& doc);

  /// Folds a whole collection (live documents only).
  void AddCollection(const Collection& coll);

  /// Incremental-delete maintenance: subtracts the document's instance
  /// counts, value counts, and value bytes from the trie and invalidates
  /// the estimator memos. Reservoir samples, distinct probes, and
  /// numeric min/max cannot shrink incrementally — they go stale, which
  /// StalenessFraction() bounds; Database::Analyze is the RUNSTATS
  /// fallback that rebuilds them (src/dml triggers it past the bound).
  /// Call BEFORE Collection::Delete frees the document's content.
  void RemoveDocument(const Document& doc);

  /// Fraction of all node instances ever recorded that were removed
  /// incrementally since the last full build — the staleness bound for
  /// the sample-backed estimators (0 right after Analyze).
  double StalenessFraction() const;

  /// All synopsis nodes whose path is matched by `pattern`.
  std::vector<const SynopsisNode*> Match(const PathPattern& pattern) const;

  /// Total instance count over matched synopsis nodes — the estimated
  /// number of nodes the pattern reaches.
  double EstimateCount(const PathPattern& pattern) const;

  /// Instance count over synopsis nodes matched by BOTH patterns — the
  /// estimated overlap of the two node sets.
  double EstimateIntersectionCount(const PathPattern& a,
                                   const PathPattern& b) const;

  /// Instance count of `pattern`-matched nodes lying inside subtrees
  /// rooted at `target`-matched nodes (ancestor-or-self). This is the
  /// index-maintenance overlap: inserting/deleting one `target` subtree
  /// touches the index entries of all its descendants reached by
  /// `pattern`.
  double EstimateSubtreeOverlap(const PathPattern& target,
                                const PathPattern& pattern) const;

  /// Aggregated value statistics over the pattern's matched nodes.
  /// Memoized per pattern: the optimizer asks for the same index
  /// patterns thousands of times during configuration search, and the
  /// trie only changes under the exclusive mutation path (AddDocument /
  /// RemoveDocument invalidate the memo).
  ///
  /// Safe to call concurrently with the other const estimators between
  /// mutations: the memo maps live behind a mutex. Returned references
  /// stay valid until the next mutation or Analyze (unordered_map never
  /// relocates mapped values, but invalidation clears the map).
  const AggValueStats& AggregateValues(const PathPattern& pattern) const;

  /// Memoized SelectivityFromStats over the pattern's aggregated values —
  /// the optimizer's hottest statistics call. Ordering predicates
  /// (kLt/kLe/kGt/kGe) estimate from the equi-depth histogram (clamped to
  /// the Laplace floor); everything else keeps sample counting.
  double SelectivityFor(const PathPattern& pattern, CompareOp op,
                        const std::string& literal) const;

  /// Number of distinct paths (synopsis nodes).
  size_t NumPaths() const;

  /// Total node instances recorded.
  uint64_t TotalNodes() const { return total_nodes_; }

  /// Process-unique stamp of the synopsis contents: drawn at construction
  /// and renewed by every mutation, so equal versions mean equal
  /// statistics. What-if cost-cache keys pin it (optimizer/cost_cache.h).
  uint64_t version() const { return version_; }

  /// All (path string, count) pairs in preorder — demo / debug output.
  std::vector<std::pair<std::string, uint64_t>> EnumeratePaths() const;

  /// Human-readable statistics report: each distinct path with its
  /// instance count, plus value statistics (numeric range + equi-depth
  /// histogram) where values were observed. `max_paths` truncates long
  /// reports (0 = unlimited).
  std::string Describe(size_t max_paths = 0) const;

  const SynopsisNode& root() const { return *root_; }

 private:
  const NameTable* names_;
  std::unique_ptr<SynopsisNode> root_;  // Virtual document node.
  uint64_t total_nodes_ = 0;
  uint64_t removed_nodes_ = 0;  // Instances removed incrementally.
  uint64_t version_;
  Random rng_;  // Deterministic reservoir sampling.
  // Estimator memos, shared by concurrent what-if optimizations. Behind
  // a unique_ptr so the mutex does not cost PathSynopsis its movability.
  struct StatsCaches {
    std::mutex mu;
    std::unordered_map<std::string, AggValueStats> agg;
    std::unordered_map<std::string, double> sel;
  };
  std::unique_ptr<StatsCaches> caches_ = std::make_unique<StatsCaches>();

  static constexpr size_t kSampleCap = 128;
  static constexpr size_t kDistinctCap = 256;

  SynopsisNode* ChildFor(SynopsisNode* parent, NameId name, bool is_attr);
  SynopsisNode* FindChild(SynopsisNode* parent, NameId name,
                          bool is_attr) const;
  void AddNode(const Document& doc, NodeIndex idx, SynopsisNode* parent);
  void RemoveNode(const Document& doc, NodeIndex idx, SynopsisNode* parent);
  void ObserveValue(SynopsisNode* sn, const std::string& value);
  /// Drops the estimator memos and draws a new version() — the common
  /// tail of every mutation.
  void InvalidateMemos();
};

}  // namespace xia

#endif  // XIA_STORAGE_PATH_SYNOPSIS_H_
