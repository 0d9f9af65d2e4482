#include "storage/path_synopsis.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "xpath/nfa.h"

namespace xia {

namespace {

/// Registry-owned estimator-memo counters ("synopsis.memo.*"). Owned by
/// the registry rather than the synopsis so PathSynopsis stays movable
/// (Database reassigns synopses on Analyze).
obs::Counter& MemoHitCounter() {
  static obs::Counter& counter =
      obs::Registry().GetCounter("synopsis.memo.hits");
  return counter;
}

obs::Counter& MemoMissCounter() {
  static obs::Counter& counter =
      obs::Registry().GetCounter("synopsis.memo.misses");
  return counter;
}

}  // namespace

std::string SynopsisNode::PathString(const NameTable& names) const {
  if (parent == nullptr) return "";  // Virtual document node.
  std::string prefix = parent->PathString(names);
  prefix += "/";
  if (is_attr) prefix += "@";
  prefix += (name == kNoName) ? "?" : names.NameOf(name);
  return prefix;
}

namespace {

uint64_t NextSynopsisVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

PathSynopsis::PathSynopsis(const NameTable* names)
    : names_(names),
      root_(std::make_unique<SynopsisNode>()),
      version_(NextSynopsisVersion()),
      rng_(7) {}

SynopsisNode* PathSynopsis::ChildFor(SynopsisNode* parent, NameId name,
                                     bool is_attr) {
  for (auto& c : parent->children) {
    if (c->name == name && c->is_attr == is_attr) return c.get();
  }
  auto child = std::make_unique<SynopsisNode>();
  child->name = name;
  child->is_attr = is_attr;
  child->parent = parent;
  child->depth = static_cast<uint16_t>(parent->depth + 1);
  parent->children.push_back(std::move(child));
  return parent->children.back().get();
}

void PathSynopsis::ObserveValue(SynopsisNode* sn, const std::string& value) {
  sn->value_count++;
  sn->total_value_bytes += static_cast<double>(value.size());
  if (auto d = ParseDouble(value); d.has_value()) {
    if (sn->numeric_count == 0) {
      sn->min_num = sn->max_num = *d;
    } else {
      sn->min_num = std::min(sn->min_num, *d);
      sn->max_num = std::max(sn->max_num, *d);
    }
    sn->numeric_count++;
  }
  // Reservoir sampling keeps a uniform sample of all observed values.
  sn->sample_seen++;
  if (sn->sample.size() < kSampleCap) {
    sn->sample.push_back(value);
  } else {
    size_t j = static_cast<size_t>(rng_.Uniform(
        0, static_cast<int64_t>(sn->sample_seen) - 1));
    if (j < kSampleCap) sn->sample[j] = value;
  }
  // Capped distinct tracker; saturates at kDistinctCap.
  if (sn->distinct_probe.size() < kDistinctCap &&
      std::find(sn->distinct_probe.begin(), sn->distinct_probe.end(),
                value) == sn->distinct_probe.end()) {
    sn->distinct_probe.push_back(value);
  }
}

void PathSynopsis::AddNode(const Document& doc, NodeIndex idx,
                           SynopsisNode* parent) {
  const XmlNode& n = doc.node(idx);
  if (n.kind == NodeKind::kText) return;  // Text folds into parent's value.
  SynopsisNode* sn =
      ChildFor(parent, n.name, n.kind == NodeKind::kAttribute);
  sn->count++;
  total_nodes_++;
  std::string value = doc.TextValue(idx);
  if (!value.empty()) ObserveValue(sn, value);
  if (n.kind == NodeKind::kElement) {
    for (NodeIndex c = n.first_child; c != kNullNode;
         c = doc.node(c).next_sibling) {
      AddNode(doc, c, sn);
    }
  }
}

SynopsisNode* PathSynopsis::FindChild(SynopsisNode* parent, NameId name,
                                      bool is_attr) const {
  for (auto& c : parent->children) {
    if (c->name == name && c->is_attr == is_attr) return c.get();
  }
  return nullptr;
}

void PathSynopsis::InvalidateMemos() {
  version_ = NextSynopsisVersion();
  std::lock_guard<std::mutex> lock(caches_->mu);
  caches_->agg.clear();
  caches_->sel.clear();
}

void PathSynopsis::AddDocument(const Document& doc) {
  if (doc.empty()) return;
  AddNode(doc, doc.root(), root_.get());
  // A memoized estimate computed before this document must not survive
  // it; cheap during a full build (the memos are empty until the first
  // estimator call).
  InvalidateMemos();
}

void PathSynopsis::RemoveNode(const Document& doc, NodeIndex idx,
                              SynopsisNode* parent) {
  const XmlNode& n = doc.node(idx);
  if (n.kind == NodeKind::kText) return;  // Folded into parent's value.
  SynopsisNode* sn =
      FindChild(parent, n.name, n.kind == NodeKind::kAttribute);
  if (sn == nullptr) return;  // Never recorded (built after a delete).
  if (sn->count > 0) {
    sn->count--;
    total_nodes_--;
    removed_nodes_++;
  }
  std::string value = doc.TextValue(idx);
  if (!value.empty() && sn->value_count > 0) {
    sn->value_count--;
    sn->total_value_bytes = std::max(
        0.0, sn->total_value_bytes - static_cast<double>(value.size()));
    if (sn->numeric_count > 0 && ParseDouble(value).has_value()) {
      // min/max and the reservoir cannot shrink incrementally; they go
      // stale until the RUNSTATS fallback rebuilds them.
      sn->numeric_count--;
    }
  }
  if (n.kind == NodeKind::kElement) {
    for (NodeIndex c = n.first_child; c != kNullNode;
         c = doc.node(c).next_sibling) {
      RemoveNode(doc, c, sn);
    }
  }
}

void PathSynopsis::RemoveDocument(const Document& doc) {
  if (doc.empty()) return;
  RemoveNode(doc, doc.root(), root_.get());
  InvalidateMemos();
}

double PathSynopsis::StalenessFraction() const {
  uint64_t ever = total_nodes_ + removed_nodes_;
  return ever == 0 ? 0.0
                   : static_cast<double>(removed_nodes_) /
                         static_cast<double>(ever);
}

void PathSynopsis::AddCollection(const Collection& coll) {
  for (DocId id = 0; id < static_cast<DocId>(coll.num_docs()); ++id) {
    if (!coll.IsLive(id)) continue;
    AddDocument(coll.doc(id));
  }
}

std::vector<const SynopsisNode*> PathSynopsis::Match(
    const PathPattern& pattern) const {
  std::vector<const SynopsisNode*> out;
  PatternNfa nfa(pattern);
  // DFS down the trie, propagating NFA state sets.
  struct Frame {
    const SynopsisNode* node;
    uint64_t states;
  };
  std::vector<Frame> stack;
  stack.push_back({root_.get(), nfa.StartSet()});
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    for (const auto& child : frame.node->children) {
      PatternSymbol sym;
      sym.is_attr = child->is_attr;
      sym.name = (child->name == kNoName) ? "" : names_->NameOf(child->name);
      uint64_t next = nfa.Advance(frame.states, sym);
      if (next == 0) continue;
      if (nfa.Accepts(next)) out.push_back(child.get());
      if (!child->is_attr) stack.push_back({child.get(), next});
    }
  }
  return out;
}

double PathSynopsis::EstimateCount(const PathPattern& pattern) const {
  double total = 0;
  for (const SynopsisNode* sn : Match(pattern)) {
    total += static_cast<double>(sn->count);
  }
  return total;
}

double PathSynopsis::EstimateIntersectionCount(const PathPattern& a,
                                               const PathPattern& b) const {
  std::vector<const SynopsisNode*> ma = Match(a);
  std::vector<const SynopsisNode*> mb = Match(b);
  std::set<const SynopsisNode*> sb(mb.begin(), mb.end());
  double total = 0;
  for (const SynopsisNode* sn : ma) {
    if (sb.count(sn) > 0) total += static_cast<double>(sn->count);
  }
  return total;
}

double PathSynopsis::EstimateSubtreeOverlap(const PathPattern& target,
                                            const PathPattern& pattern) const {
  std::vector<const SynopsisNode*> roots = Match(target);
  std::set<const SynopsisNode*> root_set(roots.begin(), roots.end());
  double total = 0;
  for (const SynopsisNode* sn : Match(pattern)) {
    for (const SynopsisNode* cur = sn; cur != nullptr; cur = cur->parent) {
      if (root_set.count(cur) > 0) {
        total += static_cast<double>(sn->count);
        break;
      }
    }
  }
  return total;
}

const AggValueStats& PathSynopsis::AggregateValues(
    const PathPattern& pattern) const {
  std::string key = pattern.ToString();
  {
    std::lock_guard<std::mutex> lock(caches_->mu);
    auto it = caches_->agg.find(key);
    if (it != caches_->agg.end()) {
      MemoHitCounter().Increment();
      return it->second;
    }
  }
  MemoMissCounter().Increment();
  // Aggregate outside the lock — Match() only reads the immutable trie.
  // A racing thread may aggregate the same pattern; emplace keeps the
  // first copy and both are identical.
  AggValueStats agg;
  bool first_num = true;
  for (const SynopsisNode* sn : Match(pattern)) {
    agg.node_count += sn->count;
    agg.value_count += sn->value_count;
    agg.numeric_count += sn->numeric_count;
    agg.total_value_bytes += sn->total_value_bytes;
    agg.distinct_estimate += static_cast<double>(sn->distinct_probe.size());
    if (sn->numeric_count > 0) {
      if (first_num) {
        agg.min_num = sn->min_num;
        agg.max_num = sn->max_num;
        first_num = false;
      } else {
        agg.min_num = std::min(agg.min_num, sn->min_num);
        agg.max_num = std::max(agg.max_num, sn->max_num);
      }
    }
    // Merge samples proportionally; a simple concat capped at 256 keeps the
    // estimator stable without re-weighting machinery.
    for (const std::string& v : sn->sample) {
      if (agg.sample.size() >= 256) break;
      agg.sample.push_back(v);
    }
  }
  std::lock_guard<std::mutex> lock(caches_->mu);
  return caches_->agg.emplace(std::move(key), std::move(agg)).first->second;
}

double PathSynopsis::SelectivityFor(const PathPattern& pattern,
                                    CompareOp op,
                                    const std::string& literal) const {
  std::string key = pattern.ToString();
  key += '\x01';
  key += CompareOpName(op);
  key += '\x01';
  key += literal;
  {
    std::lock_guard<std::mutex> lock(caches_->mu);
    auto it = caches_->sel.find(key);
    if (it != caches_->sel.end()) {
      MemoHitCounter().Increment();
      return it->second;
    }
  }
  MemoMissCounter().Increment();
  // AggregateValues takes the same lock internally — do not hold it here.
  // SelectivityFromStats prefers the equi-depth histogram for ordering
  // predicates and falls back to Laplace sample counting otherwise.
  double sel = SelectivityFromStats(AggregateValues(pattern), op, literal);
  std::lock_guard<std::mutex> lock(caches_->mu);
  caches_->sel.emplace(std::move(key), sel);
  return sel;
}

size_t PathSynopsis::NumPaths() const {
  size_t count = 0;
  std::vector<const SynopsisNode*> stack = {root_.get()};
  while (!stack.empty()) {
    const SynopsisNode* n = stack.back();
    stack.pop_back();
    for (const auto& c : n->children) {
      ++count;
      stack.push_back(c.get());
    }
  }
  return count;
}

std::string PathSynopsis::Describe(size_t max_paths) const {
  std::string out = "path synopsis: " + std::to_string(NumPaths()) +
                    " distinct paths, " + std::to_string(total_nodes_) +
                    " node instances\n";
  struct Walker {
    const PathSynopsis* synopsis;
    std::string* out;
    size_t max_paths;
    size_t emitted = 0;
    bool truncated = false;
    void Walk(const SynopsisNode& node, const std::string& prefix) {
      for (const auto& c : node.children) {
        if (max_paths != 0 && emitted >= max_paths) {
          truncated = true;
          return;
        }
        std::string path =
            prefix + "/" + (c->is_attr ? "@" : "") +
            (c->name == kNoName ? "?" : synopsis->names_->NameOf(c->name));
        *out += "  " + path + "  x" + std::to_string(c->count);
        if (c->value_count > 0) {
          *out += "  values=" + std::to_string(c->value_count);
          *out += " distinct~" + std::to_string(c->distinct_probe.size());
          if (c->numeric_count > 0) {
            *out += " range=[" + FormatDouble(c->min_num) + ", " +
                    FormatDouble(c->max_num) + "]";
            AggValueStats agg;
            agg.sample = c->sample;
            agg.value_count = c->value_count;
            Histogram hist = BuildEquiDepthHistogram(agg, 4);
            if (!hist.buckets.empty()) {
              *out += " hist=" + hist.ToString();
            }
          }
        }
        *out += "\n";
        ++emitted;
        Walk(*c, path);
      }
    }
  };
  Walker walker{this, &out, max_paths};
  walker.Walk(*root_, "");
  if (walker.truncated) out += "  ... (truncated)\n";
  return out;
}

std::vector<std::pair<std::string, uint64_t>> PathSynopsis::EnumeratePaths()
    const {
  std::vector<std::pair<std::string, uint64_t>> out;
  // Preorder walk; recursion via explicit lambda keeps order stable.
  struct Walker {
    const NameTable* names;
    std::vector<std::pair<std::string, uint64_t>>* out;
    void Walk(const SynopsisNode& node, const std::string& prefix) {
      for (const auto& c : node.children) {
        std::string path = prefix + "/" + (c->is_attr ? "@" : "") +
                           (c->name == kNoName ? "?" : names->NameOf(c->name));
        out->push_back({path, c->count});
        Walk(*c, path);
      }
    }
  };
  Walker walker{names_, &out};
  walker.Walk(*root_, "");
  return out;
}

}  // namespace xia
