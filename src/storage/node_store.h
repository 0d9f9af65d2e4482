#ifndef XIA_STORAGE_NODE_STORE_H_
#define XIA_STORAGE_NODE_STORE_H_

#include "storage/collection.h"

namespace xia {

/// Global reference to a node: (document, node index). Index entries and
/// executor intermediate results are NodeRefs.
struct NodeRef {
  DocId doc = -1;
  NodeIndex node = kNullNode;

  bool operator==(const NodeRef& other) const {
    return doc == other.doc && node == other.node;
  }
  bool operator<(const NodeRef& other) const {
    return doc != other.doc ? doc < other.doc : node < other.node;
  }
};

}  // namespace xia

#endif  // XIA_STORAGE_NODE_STORE_H_
