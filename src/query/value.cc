#include "query/value.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace xia {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kVarchar:
      return "VARCHAR";
    case ValueType::kDouble:
      return "DOUBLE";
  }
  return "?";
}

std::optional<TypedValue> TypedValue::Make(ValueType type,
                                           std::string_view raw) {
  TypedValue v;
  v.type = type;
  if (type == ValueType::kDouble) {
    std::optional<double> parsed = ParseDouble(raw);
    if (!parsed.has_value()) return std::nullopt;
    v.num = *parsed;
  } else {
    v.str.assign(raw);
  }
  return v;
}

bool TypedValue::operator<(const TypedValue& other) const {
  XIA_CHECK(type == other.type);
  if (type == ValueType::kDouble) return num < other.num;
  return str < other.str;
}

bool TypedValue::operator==(const TypedValue& other) const {
  if (type != other.type) return false;
  if (type == ValueType::kDouble) return num == other.num;
  return str == other.str;
}

std::string TypedValue::ToString() const {
  if (type == ValueType::kDouble) return FormatDouble(num);
  return str;
}

}  // namespace xia
