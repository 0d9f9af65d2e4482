#ifndef XIA_QUERY_VALUE_H_
#define XIA_QUERY_VALUE_H_

#include <optional>
#include <string>
#include <string_view>

namespace xia {

/// SQL type of an XML index key, mirroring DB2's
/// `GENERATE KEY USING XMLPATTERN ... AS SQL DOUBLE | VARCHAR(n)`.
enum class ValueType { kVarchar, kDouble };

const char* ValueTypeName(ValueType type);

/// A typed index key. kDouble keys order numerically; kVarchar keys order
/// lexicographically. Construction fails (nullopt) when a raw value cannot
/// be cast to the declared type — such nodes are simply absent from the
/// index, which is DB2's "reject non-castable values" behaviour for DOUBLE
/// indexes.
struct TypedValue {
  ValueType type = ValueType::kVarchar;
  double num = 0.0;
  std::string str;

  static std::optional<TypedValue> Make(ValueType type,
                                        std::string_view raw);

  bool operator<(const TypedValue& other) const;
  bool operator==(const TypedValue& other) const;

  std::string ToString() const;
};

}  // namespace xia

#endif  // XIA_QUERY_VALUE_H_
