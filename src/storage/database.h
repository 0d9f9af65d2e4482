#ifndef XIA_STORAGE_DATABASE_H_
#define XIA_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/collection.h"
#include "storage/path_synopsis.h"
#include "xml/name_table.h"

namespace xia {

/// The database instance: a shared name table, named collections, and a
/// path synopsis per analyzed collection. Index metadata lives separately
/// in the Catalog (src/index/catalog.h) so that the optimizer can be run
/// against hypothetical catalog overlays without copying data.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Mutable access, for loading/generating documents.
  NameTable* mutable_names() { return &names_; }
  const NameTable& names() const { return names_; }

  /// Creates an empty collection. Fails if the name exists.
  Result<Collection*> CreateCollection(const std::string& name);

  /// Looks up a collection; nullptr when absent.
  Collection* GetCollection(const std::string& name);
  const Collection* GetCollection(const std::string& name) const;

  /// Parses `xml` and adds the document to `collection` (which must exist).
  /// A document that fails to parse adds nothing, not even names.
  Status LoadXml(const std::string& collection, const std::string& xml);

  /// (Re)builds the path synopsis for a collection — the RUNSTATS
  /// analogue: InstallSynopsis(BuildSynopsis(collection)).
  Status Analyze(const std::string& collection);

  /// Builds, without installing, the synopsis of `collection`'s live
  /// documents, folded in id order. Const: it reads the collection and
  /// the name table only, so it can run beside readers of the installed
  /// synopsis.
  Result<std::unique_ptr<PathSynopsis>> BuildSynopsis(
      const std::string& collection) const;

  /// Installs `synopsis` (built by BuildSynopsis over this database) as
  /// `collection`'s, replacing the previous one. Callers must hold
  /// exclusive access to the database, as for mutable_synopsis.
  void InstallSynopsis(const std::string& collection,
                       std::unique_ptr<PathSynopsis> synopsis);

  /// Synopsis for a collection, or nullptr if never analyzed.
  const PathSynopsis* synopsis(const std::string& collection) const;

  /// Mutable synopsis access for incremental maintenance (src/dml).
  /// Callers must hold exclusive access to the database — see the
  /// mutation contract in storage/path_synopsis.h.
  PathSynopsis* mutable_synopsis(const std::string& collection);

  std::vector<std::string> CollectionNames() const;

 private:
  NameTable names_;
  std::map<std::string, std::unique_ptr<Collection>> collections_;
  std::map<std::string, std::unique_ptr<PathSynopsis>> synopses_;
};

}  // namespace xia

#endif  // XIA_STORAGE_DATABASE_H_
