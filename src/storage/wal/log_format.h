// Byte-level helpers of the write-ahead log, shared with the CRC
// trailer of the saved database file and the ingest layer's snapshot and
// corpus.meta files (storage/file.h):
// little-endian fixed32 (the CRC trailer convention the wire protocol
// and LayoutManifest already use) on top of the varint codec.
#ifndef APPROXQL_STORAGE_WAL_LOG_FORMAT_H_
#define APPROXQL_STORAGE_WAL_LOG_FORMAT_H_

#include <cstdint>
#include <string>

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

}  // namespace approxql::storage

#endif  // APPROXQL_STORAGE_WAL_LOG_FORMAT_H_
