#include "storage/database.h"

#include "xml/parser.h"

namespace xia {

Result<Collection*> Database::CreateCollection(const std::string& name) {
  if (collections_.count(name) > 0) {
    return Status::AlreadyExists("collection " + name + " already exists");
  }
  auto coll = std::make_unique<Collection>(name);
  Collection* ptr = coll.get();
  collections_.emplace(name, std::move(coll));
  return ptr;
}

Collection* Database::GetCollection(const std::string& name) {
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

const Collection* Database::GetCollection(const std::string& name) const {
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

Status Database::LoadXml(const std::string& collection,
                         const std::string& xml) {
  Collection* coll = GetCollection(collection);
  if (coll == nullptr) {
    return Status::NotFound("collection " + collection + " does not exist");
  }
  // Parsed against a private table: a document that fails to parse leaves
  // no names behind. Adoption interns in first-seen order, so ids equal a
  // direct parse's.
  NameTable names;
  XmlParser parser(&names);
  XIA_ASSIGN_OR_RETURN(Document doc, parser.Parse(xml));
  doc.RemapNames(names_.Adopt(names));
  coll->Add(std::move(doc));
  return Status::Ok();
}

Status Database::Analyze(const std::string& collection) {
  XIA_ASSIGN_OR_RETURN(std::unique_ptr<PathSynopsis> synopsis,
                       BuildSynopsis(collection));
  InstallSynopsis(collection, std::move(synopsis));
  return Status::Ok();
}

Result<std::unique_ptr<PathSynopsis>> Database::BuildSynopsis(
    const std::string& collection) const {
  const Collection* coll = GetCollection(collection);
  if (coll == nullptr) {
    return Status::NotFound("collection " + collection + " does not exist");
  }
  auto synopsis = std::make_unique<PathSynopsis>(&names_);
  synopsis->AddCollection(*coll);
  return synopsis;
}

void Database::InstallSynopsis(const std::string& collection,
                               std::unique_ptr<PathSynopsis> synopsis) {
  synopses_[collection] = std::move(synopsis);
}

const PathSynopsis* Database::synopsis(const std::string& collection) const {
  auto it = synopses_.find(collection);
  return it == synopses_.end() ? nullptr : it->second.get();
}

PathSynopsis* Database::mutable_synopsis(const std::string& collection) {
  auto it = synopses_.find(collection);
  return it == synopses_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::CollectionNames() const {
  std::vector<std::string> out;
  for (const auto& [name, coll] : collections_) out.push_back(name);
  return out;
}

}  // namespace xia
