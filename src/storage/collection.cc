#include "storage/collection.h"

namespace xia {

DocId Collection::Add(Document doc) {
  DocId id = static_cast<DocId>(docs_.size());
  doc.set_id(id);
  num_nodes_ += doc.num_nodes();
  byte_size_ += doc.ByteSize();
  docs_.push_back(std::move(doc));
  live_.push_back(1);
  ++num_live_docs_;
  return id;
}

Status Collection::Delete(DocId id) {
  if (id < 0 || static_cast<size_t>(id) >= docs_.size()) {
    return Status::OutOfRange("document " + std::to_string(id) +
                              " not in collection " + name_);
  }
  if (live_[static_cast<size_t>(id)] == 0) {
    return Status::NotFound("document " + std::to_string(id) +
                            " of collection " + name_ +
                            " is already deleted");
  }
  Document& doc = docs_[static_cast<size_t>(id)];
  num_nodes_ -= doc.num_nodes();
  byte_size_ -= doc.ByteSize();
  // Free the content; the empty slot keeps later DocIds stable and
  // serializes identically whether the delete happened live, via WAL
  // replay, or before a checkpoint.
  Document empty;
  empty.set_id(id);
  doc = std::move(empty);
  live_[static_cast<size_t>(id)] = 0;
  --num_live_docs_;
  return Status::Ok();
}

}  // namespace xia
