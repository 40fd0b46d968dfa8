// Byte-level helpers of the write-ahead log, shared with the ingest
// layer's snapshot, CURRENT and corpus.meta files:
// little-endian fixed32 (the CRC trailer convention the wire protocol
// and LayoutManifest already use) on top of the varint codec.
#ifndef APPROXQL_STORAGE_WAL_LOG_FORMAT_H_
#define APPROXQL_STORAGE_WAL_LOG_FORMAT_H_

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <string>

#include "util/status.h"

namespace approxql::storage {

inline void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  buf[2] = static_cast<char>((value >> 16) & 0xff);
  buf[3] = static_cast<char>((value >> 24) & 0xff);
  dst->append(buf, 4);
}

inline uint32_t GetFixed32(const char* data) {
  return static_cast<uint32_t>(static_cast<unsigned char>(data[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(data[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(data[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(data[3])) << 24;
}

/// Fsyncs the directory containing `path`. A tmp-file + rename commit
/// point is only durable once the parent directory's entry table itself
/// reaches media; without this, a later rename (e.g. the WAL truncate)
/// can survive a power loss while an earlier one (the CURRENT publish)
/// does not, reordering the commit protocol.
inline util::Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? std::string("/")
                                            : path.substr(0, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return util::Status::IoError(dir + ": open for directory fsync failed");
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return util::Status::IoError(dir + ": directory fsync failed");
  return util::Status::OK();
}

}  // namespace approxql::storage

#endif  // APPROXQL_STORAGE_WAL_LOG_FORMAT_H_
