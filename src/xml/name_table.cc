#include "xml/name_table.h"

#include "common/logging.h"

namespace xia {

NameId NameTable::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  NameId id = static_cast<NameId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

NameId NameTable::Lookup(std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return kNoName;
  return it->second;
}

std::vector<NameId> NameTable::Adopt(const NameTable& other) {
  std::vector<NameId> ids;
  ids.reserve(other.size());
  for (const std::string& name : other.names_) ids.push_back(Intern(name));
  return ids;
}

const std::string& NameTable::NameOf(NameId id) const {
  XIA_CHECK(id >= 0 && static_cast<size_t>(id) < names_.size());
  return names_[static_cast<size_t>(id)];
}

}  // namespace xia
