// What-if explorer: the first part of the paper's demonstration — the two
// new EXPLAIN modes, driven directly.
//
//   Enumerate Indexes mode: given a query, which index patterns could
//   help it? (Figure 2)
//   Evaluate Indexes mode: given a query and a hypothetical index
//   configuration, what would the query cost? (Figure 3)
//
//   ./build/examples/whatif_explorer ["<query>" ["<pattern> <TYPE>" ...]]

#include <iostream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "optimizer/explain.h"
#include "query/parser.h"
#include "workload/workload.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

using namespace xia;

int main(int argc, char** argv) {
  Database db;
  XMarkParams params;
  Status status = PopulateXMark(&db, "xmark", /*num_docs=*/15, params,
                                /*seed=*/3);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }

  // Queries to explore: command line or a built-in pair (one XQuery, one
  // SQL/XML — the modes are language-agnostic).
  std::vector<std::string> texts;
  if (argc > 1) {
    texts.push_back(argv[1]);
  } else {
    texts = {
        "for $i in doc(\"xmark\")/site/regions/namerica/item "
        "where $i/quantity > 5 and $i/payment = \"Creditcard\" "
        "return $i/name",
        "select * from xmark where "
        "xmlexists('$d/site/people/person[profile/@income >= 80000]')",
    };
  }

  // Hypothetical configurations to evaluate: command line pairs or
  // defaults ranging from exact to general.
  struct Config {
    std::string label;
    std::vector<std::pair<std::string, ValueType>> indexes;
  };
  std::vector<Config> configs;
  if (argc > 2) {
    Config custom;
    custom.label = "command-line configuration";
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string type_name = ToLower(argv[i + 1]);
      custom.indexes.push_back(
          {argv[i], type_name == "double" ? ValueType::kDouble
                                          : ValueType::kVarchar});
    }
    configs.push_back(std::move(custom));
  } else {
    configs = {
        {"exact indexes",
         {{"/site/regions/namerica/item/quantity", ValueType::kDouble},
          {"/site/regions/namerica/item/payment", ValueType::kVarchar}}},
        {"generalized indexes",
         {{"/site/regions/*/item/*", ValueType::kDouble},
          {"/site/regions/*/item/*", ValueType::kVarchar}}},
        {"universal index", {{"//*", ValueType::kVarchar}}},
    };
  }

  ContainmentCache cache;
  CostModel cost_model;
  Optimizer optimizer(&db, cost_model);
  Catalog empty;

  for (const std::string& text : texts) {
    Result<Query> query = ParseQuery(text);
    if (!query.ok()) {
      std::cerr << query.status().ToString() << "\n";
      continue;
    }
    query->id = "explored";
    std::cout << "########################################\n"
              << "Query (" << QueryLanguageName(query->language)
              << "): " << text << "\n"
              << "Normalized: " << query->normalized.ToString() << "\n\n";

    // --- Enumerate Indexes mode (Figure 2). ---
    Result<EnumerateIndexesResult> enumerated =
        EnumerateIndexesMode(db, *query, &cache);
    if (!enumerated.ok()) {
      std::cerr << enumerated.status().ToString() << "\n";
      continue;
    }
    std::cout << enumerated->ToString() << "\n";

    // --- Evaluate Indexes mode (Figure 3). ---
    Result<QueryPlan> base_plan = optimizer.Optimize(*query, empty, &cache);
    if (base_plan.ok()) {
      std::cout << "Cost with no indexes: "
                << FormatDouble(base_plan->total_cost) << "\n\n";
    }
    for (const Config& config : configs) {
      std::vector<IndexDefinition> defs;
      bool bad = false;
      for (const auto& [pattern_text, type] : config.indexes) {
        Result<PathPattern> pattern = ParsePathPattern(pattern_text);
        if (!pattern.ok()) {
          std::cerr << pattern.status().ToString() << "\n";
          bad = true;
          break;
        }
        IndexDefinition def;
        def.collection = query->normalized.collection;
        def.pattern = std::move(*pattern);
        def.type = type;
        defs.push_back(std::move(def));
      }
      if (bad) continue;
      Result<EvaluateIndexesResult> eval =
          EvaluateIndexesMode(optimizer, {*query}, defs, empty, &cache);
      if (!eval.ok()) {
        std::cerr << eval.status().ToString() << "\n";
        continue;
      }
      std::cout << "Configuration [" << config.label << "]:\n";
      for (const IndexDefinition& def : defs) {
        std::cout << "  '" << def.pattern.ToString() << "' AS "
                  << ValueTypeName(def.type) << "\n";
      }
      std::cout << eval->plans[0].Explain() << "\n";
    }
  }
  return 0;
}
