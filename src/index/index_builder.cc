#include "index/index_builder.h"

#include "common/failpoint.h"
#include "xpath/evaluator.h"

namespace xia {

Result<PathIndex> BuildIndex(const Database& db, const IndexDefinition& def) {
  XIA_FAILPOINT("index.builder.build");
  const Collection* coll = db.GetCollection(def.collection);
  if (coll == nullptr) {
    return Status::NotFound("collection " + def.collection +
                            " does not exist");
  }
  std::vector<PathIndex::Entry> entries;
  std::string scratch;
  for (DocId id = 0; id < static_cast<DocId>(coll->num_docs()); ++id) {
    if (!coll->IsLive(id)) continue;  // Tombstoned: nothing to index.
    const Document& doc = coll->doc(id);
    for (NodeIndex n : EvaluatePattern(doc, db.names(), def.pattern)) {
      std::optional<TypedValue> key =
          TypedValue::Make(def.type, doc.TextView(n, &scratch));
      if (!key.has_value()) continue;  // Non-castable for DOUBLE: rejected.
      entries.push_back(PathIndex::Entry{std::move(*key),
                                         NodeRef{doc.id(), n}});
    }
  }
  return PathIndex(def, std::move(entries));
}

}  // namespace xia
