#include "optimizer/plan.h"

#include "common/string_util.h"

namespace xia {

namespace {

std::string ProbeString(const IndexDefinition& def, MatchUse use,
                        bool is_virtual, bool needs_verify) {
  std::string out = (use == MatchUse::kSargableEq)
                        ? "EQ-PROBE"
                        : (use == MatchUse::kSargableRange ? "RANGE-SCAN"
                                                           : "SCAN");
  out += " " + def.name + " ('" + def.pattern.ToString() + "' AS " +
         ValueTypeName(def.type) + ")";
  if (is_virtual) out += " [virtual]";
  if (needs_verify) out += " +verify";
  return out;
}

}  // namespace

std::string IndexProbe::ToString() const {
  return ProbeString(index_def, use, index_is_virtual, needs_verify);
}

std::string AccessPath::ToString() const {
  if (!use_index) return "COLLECTION SCAN";
  std::string out =
      "INDEX " + ProbeString(index_def, use, index_is_virtual, needs_verify);
  if (has_secondary) {
    out += " IXAND " + secondary.ToString();
  }
  return out;
}

std::string QueryPlan::Explain() const {
  std::string out;
  out += "Query: " + (query_id.empty() ? query.ToString() : query_id) + "\n";
  out += "  Access: " + access.ToString() + "\n";
  if (access.use_index) {
    out += "    entries fetched (est): " +
           FormatDouble(access.est_entries_fetched) + "\n";
    if (access.served_predicate >= 0) {
      out += "    probe predicate: " +
             query.predicates[static_cast<size_t>(access.served_predicate)]
                 .ToString() +
             "\n";
    }
  }
  if (!residual_predicates.empty()) {
    out += "  Residual predicates:\n";
    for (int i : residual_predicates) {
      out += "    " + query.predicates[static_cast<size_t>(i)].ToString() +
             "\n";
    }
  }
  out += "  Cardinality (est): " + FormatDouble(est_cardinality) + "\n";
  out += "  Cost: " + FormatDouble(total_cost) + " (access " +
         FormatDouble(access_cost) + ", residual " +
         FormatDouble(residual_cost);
  if (sort_cost > 0) out += ", sort " + FormatDouble(sort_cost);
  out += ")\n";
  return out;
}

}  // namespace xia
