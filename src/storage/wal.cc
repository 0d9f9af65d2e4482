#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/io_util.h"
#include "common/metrics.h"
#include "storage/page.h"

namespace xia {
namespace storage {

namespace {

inline constexpr uint32_t kWalMagic = 0x5857414Cu;  // "XWAL"
// magic + crc + lsn + type + payload_len.
inline constexpr size_t kWalHeaderSize = 4 + 4 + 8 + 1 + 4;
// Payloads are short (a DDL statement or one XML document); anything
// larger than this is treated as a corrupt length, which keeps the
// scanner from allocating garbage-sized buffers on bit-flipped files.
inline constexpr uint32_t kWalMaxPayload = 64u << 20;

Status WriteAllFd(int fd, const char* data, size_t len,
                  const std::string& what) {
  size_t written = 0;
  while (written < len) {
    ssize_t n = ::write(fd, data + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("write failed for " + what + ": " +
                              std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  BinWriter head;
  head.U32(kWalMagic);
  head.U32(0);  // Checksum placeholder, patched below.
  head.U64(record.lsn);  // The CRC-covered region: lsn, type,
  head.U8(static_cast<uint8_t>(record.type));  // payload_len, payload.
  head.U32(static_cast<uint32_t>(record.payload.size()));
  std::string encoded = head.Take();
  encoded.reserve(encoded.size() + record.payload.size());
  encoded += record.payload;
  const uint32_t crc = Crc32(std::string_view(encoded).substr(8));
  std::memcpy(encoded.data() + 4, &crc, 4);
  return encoded;
}

WalReadResult ScanWal(std::string_view data) {
  WalReadResult result;
  size_t pos = 0;
  while (data.size() - pos >= kWalHeaderSize) {
    std::string_view header = data.substr(pos, kWalHeaderSize);
    uint32_t magic;
    uint32_t stored_crc;
    std::memcpy(&magic, header.data(), 4);
    std::memcpy(&stored_crc, header.data() + 4, 4);
    if (magic != kWalMagic) break;

    BinReader fields(header.substr(8));
    uint64_t lsn = 0;
    uint8_t type = 0;
    uint32_t payload_len = 0;
    {
      Result<uint64_t> r_lsn = fields.U64();
      Result<uint8_t> r_type = fields.U8();
      Result<uint32_t> r_len = fields.U32();
      if (!r_lsn.ok() || !r_type.ok() || !r_len.ok()) break;
      lsn = *r_lsn;
      type = *r_type;
      payload_len = *r_len;
    }
    if (payload_len > kWalMaxPayload) break;
    if (data.size() - pos - kWalHeaderSize < payload_len) break;  // Torn.
    std::string_view payload =
        data.substr(pos + kWalHeaderSize, payload_len);

    // CRC covers lsn..payload — exactly the bytes after the crc field.
    std::string crc_region(header.substr(8));
    crc_region.append(payload.data(), payload.size());
    if (Crc32(crc_region) != stored_crc) break;
    if (type < static_cast<uint8_t>(WalRecordType::kCreateCollection) ||
        type > static_cast<uint8_t>(WalRecordType::kUpdateDocument)) {
      break;
    }

    WalRecord record;
    record.lsn = lsn;
    record.type = static_cast<WalRecordType>(type);
    record.payload.assign(payload.data(), payload.size());
    result.records.push_back(std::move(record));
    pos += kWalHeaderSize + payload_len;
  }
  result.valid_bytes = pos;
  result.clean = (pos == data.size());
  return result;
}

Result<WalWriter> WalWriter::Open(const std::string& path,
                                  uint64_t valid_bytes, bool sync) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open WAL " + path + ": " +
                            std::strerror(errno));
  }
  // Drop any torn tail left by a crash mid-append, then start appending
  // from the end of the valid prefix.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    Status status = Status::Internal("cannot truncate WAL " + path + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::lseek(fd, static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
    Status status = Status::Internal("cannot seek WAL " + path + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  return WalWriter(path, fd, valid_bytes, sync);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      bytes_(other.bytes_),
      sync_(other.sync_),
      poisoned_(other.poisoned_) {}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    bytes_ = other.bytes_;
    sync_ = other.sync_;
    poisoned_ = other.poisoned_;
  }
  return *this;
}

WalWriter::~WalWriter() { Close(); }

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WalWriter::Append(const WalRecord& record) {
  if (poisoned_) {
    return Status::Internal(
        "WAL writer is poisoned after a failed append; reopen the "
        "database to recover");
  }
  if (fd_ < 0) return Status::Internal("WAL writer is closed");

  const std::string encoded = EncodeWalRecord(record);
  // The failpoint sits between the two halves of the record write, so an
  // injected failure leaves a torn tail exactly as a crash would. Any
  // failure (injected or real) poisons the writer: a crashed process
  // cannot keep appending, and recovery-on-open is the only way back.
  Status status = [&]() -> Status {
    size_t half = encoded.size() / 2;
    XIA_RETURN_IF_ERROR(WriteAllFd(fd_, encoded.data(), half, path_));
    XIA_FAILPOINT_ARG("storage.wal.append",
                      static_cast<int64_t>(record.lsn));
    XIA_RETURN_IF_ERROR(
        WriteAllFd(fd_, encoded.data() + half, encoded.size() - half,
                   path_));
    if (sync_) XIA_RETURN_IF_ERROR(FsyncFd(fd_, path_));
    return Status::Ok();
  }();
  if (!status.ok()) {
    poisoned_ = true;
    return status;
  }
  bytes_ += encoded.size();
  obs::Registry().GetCounter("storage.wal.appends").Increment();
  return Status::Ok();
}

}  // namespace storage
}  // namespace xia
