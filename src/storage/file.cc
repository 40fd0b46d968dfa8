#include "storage/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "storage/wal/log_format.h"
#include "util/crc32.h"

namespace approxql::storage {

using util::Result;
using util::Status;

namespace {

/// Fsyncs the directory containing `path`. A tmp-file + rename commit
/// point is only durable once the parent directory's entry table itself
/// reaches media; without this, a later rename (e.g. the WAL truncate)
/// can survive a power loss while an earlier one (the snapshot publish)
/// does not, reordering the commit protocol.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? std::string("/")
                                            : path.substr(0, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(dir + ": open for directory fsync failed");
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError(dir + ": directory fsync failed");
  return Status::OK();
}

}  // namespace

Status WriteFileDurably(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return Status::IoError("cannot create " + tmp);
  if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size() ||
      std::fflush(file) != 0 || ::fsync(fileno(file)) != 0) {
    std::fclose(file);
    return Status::IoError(tmp + ": write failed");
  }
  if (std::fclose(file) != 0) return Status::IoError(tmp + ": close failed");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + " -> " + path + " failed");
  }
  return SyncParentDir(path);
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return errno == ENOENT ? Status::NotFound(path + ": cannot open")
                           : Status::IoError(path + ": cannot open");
  }
  std::string data;
  char buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    data.append(buffer, n);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return Status::IoError(path + ": read failed");
  return data;
}

void AppendCrcTrailer(std::string* out) {
  PutFixed32(out, util::Crc32c(*out));
}

Result<std::string_view> CheckCrcTrailer(std::string_view data,
                                         std::string_view what) {
  constexpr size_t kCrcBytes = 4;
  if (data.size() < kCrcBytes) {
    return Status::Corruption(std::string(what) + ": truncated");
  }
  const std::string_view body = data.substr(0, data.size() - kCrcBytes);
  if (GetFixed32(data.data() + body.size()) != util::Crc32c(body)) {
    return Status::Corruption(std::string(what) + ": CRC mismatch");
  }
  return body;
}

}  // namespace approxql::storage
