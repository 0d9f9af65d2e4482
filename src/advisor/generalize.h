#ifndef XIA_ADVISOR_GENERALIZE_H_
#define XIA_ADVISOR_GENERALIZE_H_

#include <optional>
#include <vector>

#include "advisor/candidate.h"
#include "storage/database.h"

namespace xia {

/// Knobs of the candidate generalization step (Section 2.2).
struct GeneralizeOptions {
  /// Fixpoint rounds of pairwise unification.
  size_t max_rounds = 4;
  /// Hard cap on generated (non-basic) candidates.
  size_t max_generated = 500;
};

/// Pointwise step unification: if the two patterns have the same length
/// and agree on every step's axis and node kind, returns the pattern with
/// `*` wherever their name tests differ (and the common test elsewhere).
/// Returns nullopt when the patterns are identical or not unifiable.
/// This single rule reproduces the paper's example chain:
///   /regions/namerica/item/quantity + /regions/africa/item/quantity
///     -> /regions/*/item/quantity
///   /regions/*/item/quantity + /regions/samerica/item/price
///     -> /regions/*/item/*
std::optional<PathPattern> UnifyPatterns(const PathPattern& a,
                                         const PathPattern& b);

/// Expands the basic candidate set with generalized candidates: repeated
/// pairwise unification (within the same collection and key type) to a
/// fixpoint, bounded by `options`. Generated candidates get synopsis-
/// estimated sizes and inherit the union of their parents' source queries.
/// Returns the expanded set: all basics first, then generated candidates.
std::vector<CandidateIndex> GeneralizeCandidates(
    std::vector<CandidateIndex> basics, const Database& db,
    const GeneralizeOptions& options);

}  // namespace xia

#endif  // XIA_ADVISOR_GENERALIZE_H_
