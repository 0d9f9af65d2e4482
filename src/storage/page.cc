#include "storage/page.h"

#include <array>

namespace xia {
namespace storage {

namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the classic byte-at-a-time
/// table, and kCrcTables[k][b] is the CRC of byte b followed by k zero
/// bytes, so eight table lookups advance the CRC over eight input bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

/// Little-endian load, whatever the host's byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void AppendPage(std::string* file_image, uint64_t page_no, PageType type,
                std::string_view payload) {
  BinWriter header;
  header.U32(kPageMagic);
  header.U32(0);  // Checksum placeholder, patched below.
  header.U64(page_no);
  header.U8(static_cast<uint8_t>(type));
  header.U8(0);
  header.U8(0);
  header.U8(0);
  header.U32(static_cast<uint32_t>(payload.size()));

  size_t page_start = file_image->size();
  file_image->append(header.bytes());
  file_image->append(payload.data(), payload.size());
  file_image->resize(page_start + kPageSize, '\0');

  // CRC over the whole page image with the checksum field zeroed.
  uint32_t crc =
      Crc32(std::string_view(file_image->data() + page_start, kPageSize));
  std::memcpy(file_image->data() + page_start + 4, &crc, 4);
}

Result<PageView> ReadPage(std::string_view file_image, uint64_t page_no,
                          bool* checksum_failed) {
  if (checksum_failed != nullptr) *checksum_failed = false;
  size_t offset = static_cast<size_t>(page_no) * kPageSize;
  if (offset + kPageSize > file_image.size()) {
    return Status::Internal("page " + std::to_string(page_no) +
                            " is beyond the page file (truncated?)");
  }
  std::string_view page = file_image.substr(offset, kPageSize);

  uint32_t magic;
  uint32_t stored_crc;
  std::memcpy(&magic, page.data(), 4);
  std::memcpy(&stored_crc, page.data() + 4, 4);
  if (magic != kPageMagic) {
    return Status::Internal("page " + std::to_string(page_no) +
                            ": bad magic");
  }
  std::string zeroed(page);
  std::memset(zeroed.data() + 4, 0, 4);
  if (Crc32(zeroed) != stored_crc) {
    if (checksum_failed != nullptr) *checksum_failed = true;
    return Status::Internal("page " + std::to_string(page_no) +
                            ": checksum mismatch");
  }

  BinReader header(page.substr(8, kPageHeaderSize - 8));
  XIA_ASSIGN_OR_RETURN(uint64_t stored_no, header.U64());
  XIA_ASSIGN_OR_RETURN(uint8_t type, header.U8());
  (void)header.U8();
  (void)header.U8();
  (void)header.U8();
  XIA_ASSIGN_OR_RETURN(uint32_t payload_len, header.U32());
  if (stored_no != page_no) {
    return Status::Internal("page " + std::to_string(page_no) +
                            ": header says page " +
                            std::to_string(stored_no));
  }
  if (type < static_cast<uint8_t>(PageType::kMeta) ||
      type > static_cast<uint8_t>(PageType::kCatalog)) {
    return Status::Internal("page " + std::to_string(page_no) +
                            ": unknown page type " + std::to_string(type));
  }
  if (payload_len > kPagePayloadSize) {
    return Status::Internal("page " + std::to_string(page_no) +
                            ": payload length out of range");
  }
  PageView view;
  view.page_no = page_no;
  view.type = static_cast<PageType>(type);
  view.payload = page.substr(kPageHeaderSize, payload_len);
  return view;
}

Status BinReader::Need(size_t n) {
  if (data_.size() - pos_ < n) {
    return Status::Internal("binary payload truncated at offset " +
                            std::to_string(pos_));
  }
  return Status::Ok();
}

Result<uint8_t> BinReader::U8() {
  XIA_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint16_t> BinReader::U16() {
  XIA_RETURN_IF_ERROR(Need(2));
  uint16_t v;
  std::memcpy(&v, data_.data() + pos_, 2);
  pos_ += 2;
  return v;
}

Result<uint32_t> BinReader::U32() {
  XIA_RETURN_IF_ERROR(Need(4));
  uint32_t v;
  std::memcpy(&v, data_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

Result<uint64_t> BinReader::U64() {
  XIA_RETURN_IF_ERROR(Need(8));
  uint64_t v;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

Result<int32_t> BinReader::I32() {
  XIA_RETURN_IF_ERROR(Need(4));
  int32_t v;
  std::memcpy(&v, data_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

Result<double> BinReader::F64() {
  XIA_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

Result<std::string> BinReader::Str() {
  XIA_ASSIGN_OR_RETURN(uint32_t len, U32());
  XIA_RETURN_IF_ERROR(Need(len));
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

}  // namespace storage
}  // namespace xia
