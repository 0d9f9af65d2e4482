#include "index/index_matcher.h"

namespace xia {

const char* MatchUseName(MatchUse use) {
  switch (use) {
    case MatchUse::kSargableEq:
      return "eq-probe";
    case MatchUse::kSargableRange:
      return "range-scan";
    case MatchUse::kStructural:
      return "structural";
  }
  return "?";
}

std::string IndexMatch::ToString() const {
  std::string out = entry->def.name + " [" + MatchUseName(use);
  out += exact ? ", exact" : ", verify";
  out += "] -> ";
  out += (predicate_index < 0) ? "FOR path"
                               : "predicate #" +
                                     std::to_string(predicate_index);
  return out;
}

QueryPatternIds IndexMatcher::Intern(const NormalizedQuery& query) {
  QueryPatternIds ids;
  ids.predicates.reserve(query.predicates.size());
  for (const QueryPredicate& pred : query.predicates) {
    ids.predicates.push_back(cache_->Intern(pred.pattern));
  }
  ids.for_path = cache_->Intern(query.for_path);
  return ids;
}

bool IndexMatcher::CanServe(const NormalizedQuery& query,
                            const QueryPatternIds& ids,
                            const IndexDefinition& def, PatternId pattern) {
  std::vector<IndexMatch> matches;
  MatchIndex(query, ids, def, pattern, nullptr, &matches);
  return !matches.empty();
}

std::vector<IndexMatch> IndexMatcher::Match(
    const NormalizedQuery& query,
    const std::vector<const CatalogEntry*>& indexes) {
  std::vector<IndexMatch> out;
  if (indexes.empty()) return out;
  const QueryPatternIds ids = Intern(query);
  for (const CatalogEntry* entry : indexes) {
    MatchIndex(query, ids, entry->def, cache_->Intern(entry->def.pattern),
               entry, &out);
  }
  return out;
}

void IndexMatcher::MatchIndex(const NormalizedQuery& query,
                              const QueryPatternIds& ids,
                              const IndexDefinition& def, PatternId pattern,
                              const CatalogEntry* entry,
                              std::vector<IndexMatch>* out) {
  if (def.collection != query.collection) return;
  // Match against each value/existence predicate.
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    const QueryPredicate& pred = query.predicates[i];
    if (!cache_->Contains(pattern, ids.predicates[i])) continue;
    IndexMatch match;
    match.entry = entry;
    match.predicate_index = static_cast<int>(i);
    match.exact = cache_->Contains(ids.predicates[i], pattern);
    bool type_ok = def.type == pred.ImpliedType();
    switch (pred.op) {
      case CompareOp::kEq:
        match.use = type_ok ? MatchUse::kSargableEq : MatchUse::kStructural;
        break;
      case CompareOp::kLt:
      case CompareOp::kLe:
      case CompareOp::kGt:
      case CompareOp::kGe:
        match.use = type_ok ? MatchUse::kSargableRange : MatchUse::kStructural;
        break;
      case CompareOp::kNe:
      case CompareOp::kContains:
      case CompareOp::kExists:
        match.use = MatchUse::kStructural;
        break;
    }
    // Structural use must see every node under the pattern; DOUBLE
    // indexes are lossy (non-castable values rejected), so they only
    // support sargable use.
    if (match.use == MatchUse::kStructural && def.type != ValueType::kVarchar) {
      continue;
    }
    out->push_back(match);
  }
  // Match against the driving FOR path (structural access).
  if (def.type == ValueType::kVarchar &&
      cache_->Contains(pattern, ids.for_path)) {
    IndexMatch match;
    match.entry = entry;
    match.predicate_index = -1;
    match.use = MatchUse::kStructural;
    match.exact = cache_->Contains(ids.for_path, pattern);
    out->push_back(match);
  }
}

}  // namespace xia
