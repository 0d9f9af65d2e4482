#ifndef XIA_XML_NAME_TABLE_H_
#define XIA_XML_NAME_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace xia {

/// Interned element/attribute name identifier. Valid ids are >= 0.
using NameId = int32_t;

/// Sentinel for "no name" (text nodes).
inline constexpr NameId kNoName = -1;

/// Interns element and attribute names so that nodes, path steps, and the
/// path synopsis compare names by integer id. One NameTable is shared by all
/// collections of a Database.
class NameTable {
 public:
  NameTable() = default;
  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;
  NameTable(NameTable&&) = default;
  NameTable& operator=(NameTable&&) = default;

  /// Returns the id for `name`, interning it on first use.
  NameId Intern(std::string_view name);

  /// Returns the id for `name` or kNoName if never interned.
  NameId Lookup(std::string_view name) const;

  /// Returns the spelling of an interned id. Requires a valid id.
  const std::string& NameOf(NameId id) const;

  /// Interns every name of `other` in `other`'s id order and returns the
  /// id each one has here, indexed by its id in `other`. For a fresh
  /// table that one parse filled, that order is the order the document
  /// first names them, so adopting it interns exactly what parsing the
  /// same text straight into this table would have.
  std::vector<NameId> Adopt(const NameTable& other);

  size_t size() const { return names_.size(); }

 private:
  /// Transparent hash: lets ids_ be probed with a string_view, so a
  /// lookup of an already-interned name allocates nothing.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId, NameHash, std::equal_to<>> ids_;
};

}  // namespace xia

#endif  // XIA_XML_NAME_TABLE_H_
