#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace_span.h"
#include "exec/operators.h"
#include "xml/serializer.h"
#include "xpath/evaluator.h"

namespace xia {

namespace {

using Clock = std::chrono::steady_clock;

/// Registry-owned access-path counters ("exec.scan.*"): how often
/// execution actually ran a full collection scan vs. an index probe —
/// the runtime mirror of the optimizer's choice counters.
obs::Counter& CollectionScanCounter() {
  static obs::Counter& counter =
      obs::Registry().GetCounter("exec.scan.collection");
  return counter;
}

obs::Counter& IndexScanCounter() {
  static obs::Counter& counter =
      obs::Registry().GetCounter("exec.scan.index");
  return counter;
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Evaluates the query's RETURN projections over one qualifying document.
void CollectReturns(const Document& doc, const NameTable& names,
                    const NormalizedQuery& query, ExecResult* result) {
  for (const PathPattern& ret : query.returns) {
    for (NodeIndex n : EvaluatePattern(doc, names, ret)) {
      result->returned.push_back(NodeRef{doc.id(), n});
    }
  }
}

/// Applies the query's ORDER BY (first key) to the driving nodes: each
/// node sorts by the value of the first order-key node (in document
/// order) inside its own subtree, numeric when both keys parse as
/// numbers. Stable, so document order breaks ties.
void SortByOrderKey(const Collection& coll, const NameTable& names,
                    const NormalizedQuery& query,
                    std::vector<NodeRef>* nodes) {
  if (query.order_by.empty() || nodes->size() < 2) return;
  const PathPattern& key_pattern = query.order_by.front();
  struct Keyed {
    std::string key;
    std::optional<double> num;  // ParseDouble(key), parsed once.
    NodeRef ref;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(nodes->size());
  // Key-pattern matches of the current document, sorted by region begin
  // (node index). Both plans emit driving nodes grouped by document.
  DocId matched_doc = -1;
  std::vector<NodeIndex> matches;
  for (const NodeRef& ref : *nodes) {
    const Document& doc = coll.doc(ref.doc);
    if (ref.doc != matched_doc) {
      matches = EvaluatePattern(doc, names, key_pattern);
      matched_doc = ref.doc;
    }
    // The first match at or after the driving node's begin is the first
    // one inside its subtree, if any match is.
    const XmlNode& driving = doc.node(ref.node);
    std::string key;
    for (auto it = std::lower_bound(matches.begin(), matches.end(),
                                    static_cast<NodeIndex>(driving.begin));
         it != matches.end() && doc.node(*it).begin <= driving.end; ++it) {
      if (doc.node(*it).end <= driving.end) {
        key = doc.TextValue(*it);
        break;
      }
    }
    std::optional<double> num = ParseDouble(key);
    keyed.push_back(Keyed{std::move(key), num, ref});
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     if (a.num.has_value() && b.num.has_value()) {
                       return *a.num < *b.num;
                     }
                     return a.key < b.key;
                   });
  for (size_t i = 0; i < keyed.size(); ++i) (*nodes)[i] = keyed[i].ref;
}

}  // namespace

std::string RenderResults(const Database& db, const std::string& collection,
                          const ExecResult& result, size_t max_items) {
  const Collection* coll = db.GetCollection(collection);
  if (coll == nullptr) return "";
  const std::vector<NodeRef>& items =
      result.returned.empty() ? result.nodes : result.returned;
  std::string out;
  size_t shown = 0;
  for (const NodeRef& ref : items) {
    if (shown >= max_items) {
      out += "... (" + std::to_string(items.size() - shown) + " more)\n";
      break;
    }
    out += SerializeSubtree(coll->doc(ref.doc), db.names(), ref.node) + "\n";
    ++shown;
  }
  return out;
}

Status Executor::TouchDocument(const Document& doc) const {
  if (buffer_pool_ == nullptr) return Status::Ok();
  double pages = std::max(
      1.0, std::ceil(static_cast<double>(doc.ByteSize()) /
                     cost_model_.storage.page_size_bytes));
  return buffer_pool_->FetchRun(DocPageId(doc.id(), 0),
                                static_cast<uint32_t>(pages));
}

Status Executor::TouchNodePage(const Document& doc, NodeIndex node) const {
  if (buffer_pool_ == nullptr) return Status::Ok();
  double bytes_per_node =
      doc.num_nodes() == 0
          ? 1.0
          : static_cast<double>(doc.ByteSize()) /
                static_cast<double>(doc.num_nodes());
  uint32_t page = static_cast<uint32_t>(
      static_cast<double>(doc.node(node).begin) * bytes_per_node /
      cost_model_.storage.page_size_bytes);
  return buffer_pool_->Fetch(DocPageId(doc.id(), page)).status();
}

Status Executor::TouchIndexLeaves(const std::string& index_name,
                                  double pages) const {
  if (buffer_pool_ == nullptr) return Status::Ok();
  uint64_t hash = std::hash<std::string>{}(index_name);
  return buffer_pool_->FetchRun(IndexPageId(hash, 0),
                                static_cast<uint32_t>(std::ceil(pages)));
}

Result<ExecResult> Executor::Execute(const QueryPlan& plan) const {
  const Collection* coll = db_->GetCollection(plan.query.collection);
  if (coll == nullptr) {
    return Status::NotFound("collection " + plan.query.collection +
                            " does not exist");
  }
  if (plan.access.use_index) return ExecuteIndex(plan, *coll);
  return ExecuteScan(plan, *coll);
}

Result<ExecResult> Executor::ExecuteScan(const QueryPlan& plan,
                                         const Collection& coll) const {
  XIA_SPAN("exec.scan");
  CollectionScanCounter().Increment();
  auto start = Clock::now();
  ExecResult result;
  uint64_t hits_before = buffer_pool_ ? buffer_pool_->hits() : 0;
  uint64_t misses_before = buffer_pool_ ? buffer_pool_->misses() : 0;
  const NameTable& names = db_->names();
  for (DocId id = 0; id < static_cast<DocId>(coll.num_docs()); ++id) {
    if (!coll.IsLive(id)) continue;  // Tombstoned by dml::ApplyDelete.
    const Document& doc = coll.doc(id);
    result.nodes_examined += doc.num_nodes();
    XIA_RETURN_IF_ERROR(TouchDocument(doc));
    bool qualifies = true;
    for (const QueryPredicate& pred : plan.query.predicates) {
      if (!DocSatisfiesPredicate(doc, names, pred)) {
        qualifies = false;
        break;
      }
    }
    if (!qualifies) continue;
    std::vector<NodeIndex> driving =
        EvaluatePattern(doc, names, plan.query.for_path);
    if (driving.empty()) continue;
    result.docs_matched++;
    for (NodeIndex n : driving) {
      result.nodes.push_back(NodeRef{doc.id(), n});
    }
    CollectReturns(doc, names, plan.query, &result);
  }
  SortByOrderKey(coll, names, plan.query, &result.nodes);
  result.simulated_page_reads =
      cost_model_.Pages(static_cast<double>(coll.ByteSize()));
  if (buffer_pool_ != nullptr) {
    result.buffer_hits = buffer_pool_->hits() - hits_before;
    result.buffer_misses = buffer_pool_->misses() - misses_before;
  }
  result.wall_micros = MicrosSince(start);
  return result;
}

Result<ExecResult> Executor::ExecuteIndex(const QueryPlan& plan,
                                          const Collection& coll) const {
  XIA_SPAN("exec.index");
  IndexScanCounter().Increment();
  const CatalogEntry* entry = catalog_->Find(plan.access.index_def.name);
  if (entry == nullptr || entry->is_virtual || entry->physical == nullptr) {
    return Status::InvalidArgument(
        "index " + plan.access.index_def.name +
        " is not physically available for execution");
  }
  // Resolve the ANDed secondary index up front, if any.
  const CatalogEntry* secondary_entry = nullptr;
  if (plan.access.has_secondary) {
    secondary_entry = catalog_->Find(plan.access.secondary.index_def.name);
    if (secondary_entry == nullptr || secondary_entry->is_virtual ||
        secondary_entry->physical == nullptr) {
      return Status::InvalidArgument(
          "index " + plan.access.secondary.index_def.name +
          " is not physically available for execution");
    }
  }

  auto start = Clock::now();
  ExecResult result;
  uint64_t hits_before = buffer_pool_ ? buffer_pool_->hits() : 0;
  uint64_t misses_before = buffer_pool_ ? buffer_pool_->misses() : 0;
  const NameTable& names = db_->names();
  const PathIndex& index = *entry->physical;

  // Runs one probe and reduces it to the set of candidate documents,
  // verifying each fetched node's root path when the index pattern is
  // more general than the query pattern.
  size_t total_fetched = 0;
  auto probe_to_docs = [&](const PathIndex& idx, MatchUse use,
                           int served_predicate,
                           bool needs_verify) -> Result<std::set<DocId>> {
    std::vector<NodeRef> fetched =
        ProbeIndexForPredicate(idx, plan.query, use, served_predicate);
    total_fetched += fetched.size();
    result.nodes_examined += fetched.size();
    if (buffer_pool_ != nullptr) {
      double frac = idx.num_entries() == 0
                        ? 0.0
                        : static_cast<double>(fetched.size()) /
                              static_cast<double>(idx.num_entries());
      XIA_RETURN_IF_ERROR(
          TouchIndexLeaves(idx.def().name, idx.LeafPages(cost_model_.storage) *
                                               std::min(1.0, frac)));
      for (const NodeRef& ref : fetched) {
        XIA_RETURN_IF_ERROR(TouchNodePage(coll.doc(ref.doc), ref.node));
      }
    }
    const PathPattern& probed_pattern =
        served_predicate >= 0
            ? plan.query.predicates[static_cast<size_t>(served_predicate)]
                  .pattern
            : plan.query.for_path;
    // One NFA per probe, not per fetched entry.
    PatternNfa verify_nfa(probed_pattern);
    std::set<DocId> docs;
    for (const NodeRef& ref : fetched) {
      const Document& doc = coll.doc(ref.doc);
      if (needs_verify &&
          !VerifyNodePathNfa(doc, names, ref.node, verify_nfa)) {
        continue;
      }
      docs.insert(ref.doc);
    }
    return docs;
  };

  XIA_ASSIGN_OR_RETURN(
      std::set<DocId> candidate_docs,
      probe_to_docs(index, plan.access.use, plan.access.served_predicate,
                    plan.access.needs_verify));
  if (plan.access.has_secondary) {
    const IndexProbe& sec = plan.access.secondary;
    XIA_ASSIGN_OR_RETURN(
        std::set<DocId> secondary_docs,
        probe_to_docs(*secondary_entry->physical, sec.use,
                      sec.served_predicate, sec.needs_verify));
    std::set<DocId> intersection;
    for (DocId d : candidate_docs) {
      if (secondary_docs.count(d) > 0) intersection.insert(d);
    }
    candidate_docs = std::move(intersection);
  }

  // Structural probes locate pattern nodes but do not evaluate the served
  // predicate's comparison; re-check it with the residuals in that case.
  std::vector<const QueryPredicate*> residuals;
  for (size_t i = 0; i < plan.query.predicates.size(); ++i) {
    if (plan.access.use != MatchUse::kStructural &&
        static_cast<int>(i) == plan.access.served_predicate) {
      continue;
    }
    if (plan.access.has_secondary &&
        plan.access.secondary.use != MatchUse::kStructural &&
        static_cast<int>(i) == plan.access.secondary.served_predicate) {
      continue;
    }
    residuals.push_back(&plan.query.predicates[i]);
  }

  for (DocId doc_id : candidate_docs) {
    // Index maintenance removes a tombstoned document's entries before
    // Collection::Delete, so a probe should never surface one; filter
    // defensively anyway so a stale entry cannot resurrect deleted data.
    if (!coll.IsLive(doc_id)) continue;
    const Document& doc = coll.doc(doc_id);
    // Residual evaluation and driving-node extraction navigate the whole
    // candidate document.
    XIA_RETURN_IF_ERROR(TouchDocument(doc));
    bool qualifies = true;
    for (const QueryPredicate* pred : residuals) {
      if (!DocSatisfiesPredicate(doc, names, *pred)) {
        qualifies = false;
        break;
      }
    }
    if (!qualifies) continue;
    std::vector<NodeIndex> driving =
        EvaluatePattern(doc, names, plan.query.for_path);
    if (driving.empty()) continue;
    result.docs_matched++;
    for (NodeIndex n : driving) {
      result.nodes.push_back(NodeRef{doc_id, n});
    }
    CollectReturns(doc, names, plan.query, &result);
  }
  SortByOrderKey(coll, names, plan.query, &result.nodes);

  const StorageConstants& sc = cost_model_.storage;
  double leaf_fraction =
      index.num_entries() == 0
          ? 0.0
          : static_cast<double>(total_fetched) /
                static_cast<double>(index.num_entries());
  result.simulated_page_reads =
      static_cast<double>(index.Height(sc)) +
      index.LeafPages(sc) * std::min(1.0, leaf_fraction) +
      static_cast<double>(total_fetched) * 0.1;  // Partial-page fetches.
  if (secondary_entry != nullptr) {
    result.simulated_page_reads +=
        static_cast<double>(secondary_entry->physical->Height(sc));
  }
  if (buffer_pool_ != nullptr) {
    result.buffer_hits = buffer_pool_->hits() - hits_before;
    result.buffer_misses = buffer_pool_->misses() - misses_before;
  }
  result.wall_micros = MicrosSince(start);
  return result;
}

}  // namespace xia
