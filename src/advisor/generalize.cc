#include "advisor/generalize.h"

#include <map>
#include <string>

#include "common/logging.h"

namespace xia {

std::optional<PathPattern> UnifyPatterns(const PathPattern& a,
                                         const PathPattern& b) {
  if (a.length() != b.length() || a.length() == 0) return std::nullopt;
  std::vector<Step> steps;
  steps.reserve(a.length());
  bool differs = false;
  for (size_t i = 0; i < a.length(); ++i) {
    const Step& sa = a.steps()[i];
    const Step& sb = b.steps()[i];
    if (sa.axis != sb.axis || sa.is_attribute != sb.is_attribute) {
      return std::nullopt;
    }
    Step out = sa;
    if (sa.wildcard == sb.wildcard &&
        (sa.wildcard || sa.name == sb.name)) {
      // Identical step: keep as is.
    } else {
      out.wildcard = true;
      out.name.clear();
      differs = true;
    }
    steps.push_back(std::move(out));
  }
  if (!differs) return std::nullopt;  // Identical patterns: nothing new.
  return PathPattern(std::move(steps));
}

namespace {

/// Adds the candidate that unifying `(*all)[a]` with `(*all)[b]` into
/// `pattern` generates, or merges its provenance (source queries,
/// sargability) into the candidate that already has its key. Statistics
/// are estimated for a new candidate only. Returns true when one was
/// added. Takes indices, not references: adding may reallocate `*all`.
bool AddGenerated(size_t a, size_t b, PathPattern pattern, const Database& db,
                  std::vector<CandidateIndex>* all,
                  std::map<std::string, int>* by_key) {
  CandidateIndex out;
  out.def.collection = (*all)[a].def.collection;
  out.def.pattern = std::move(pattern);
  out.def.type = (*all)[a].def.type;
  out.from_generalization = true;
  out.sargable = (*all)[a].sargable || (*all)[b].sargable;
  out.source_queries = (*all)[a].source_queries;
  MergeCandidate(&out, (*all)[b]);
  auto [it, inserted] =
      by_key->emplace(out.Key(), static_cast<int>(all->size()));
  if (!inserted) {
    MergeCandidate(&(*all)[static_cast<size_t>(it->second)], out);
    return false;
  }
  const PathSynopsis* synopsis = db.synopsis(out.def.collection);
  XIA_CHECK(synopsis != nullptr);
  out.stats = EstimateVirtualIndex(*synopsis, out.def, StorageConstants());
  all->push_back(std::move(out));
  return true;
}

}  // namespace

std::vector<CandidateIndex> GeneralizeCandidates(
    std::vector<CandidateIndex> basics, const Database& db,
    const GeneralizeOptions& options) {
  std::vector<CandidateIndex> all = std::move(basics);
  std::map<std::string, int> by_key;
  for (size_t i = 0; i < all.size(); ++i) {
    by_key.emplace(all[i].Key(), static_cast<int>(i));
  }
  size_t generated = 0;

  size_t frontier_begin = 0;
  for (size_t round = 0; round < options.max_rounds; ++round) {
    size_t size_before = all.size();
    // Unify every (existing, frontier) pair; the frontier is what the
    // previous round added (round 0: everything).
    for (size_t i = 0; i < size_before && generated < options.max_generated;
         ++i) {
      size_t j_start = std::max(i + 1, frontier_begin);
      for (size_t j = j_start;
           j < size_before && generated < options.max_generated; ++j) {
        const CandidateIndex& a = all[i];
        const CandidateIndex& b = all[j];
        if (a.def.collection != b.def.collection || a.def.type != b.def.type) {
          continue;
        }
        std::optional<PathPattern> unified =
            UnifyPatterns(a.def.pattern, b.def.pattern);
        if (!unified.has_value()) continue;
        if (AddGenerated(i, j, std::move(*unified), db, &all, &by_key)) {
          ++generated;
        }
      }
    }
    if (all.size() == size_before) break;  // Fixpoint.
    frontier_begin = size_before;
  }
  return all;
}

}  // namespace xia
