#include "storage/wal/wal.h"

#include <unistd.h>

#include <cstdio>
#include <utility>

#include "storage/file.h"
#include "storage/wal/log_format.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/varint.h"

namespace approxql::storage {

using util::Result;
using util::Status;

namespace {

constexpr uint32_t kWalMagic = 0x4c575141;  // "AQWL"
constexpr uint32_t kWalVersion = 1;
constexpr size_t kCrcBytes = 4;

Status SyncFile(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) {
    return Status::IoError(path + ": fflush failed");
  }
  if (::fsync(fileno(file)) != 0) {
    return Status::IoError(path + ": fsync failed");
  }
  return Status::OK();
}

/// Parses the header; on success positions `*header_end` just past it.
Status ParseHeader(std::string_view data, std::string* config,
                   uint64_t* base_seq, size_t* header_end) {
  util::VarintReader reader(data);
  uint32_t magic = 0, version = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&magic));
  if (magic != kWalMagic) return Status::Corruption("WAL: bad magic");
  RETURN_IF_ERROR(reader.GetVarint32(&version));
  if (version != kWalVersion) {
    return Status::Corruption("WAL: unsupported version " +
                              std::to_string(version));
  }
  RETURN_IF_ERROR(reader.GetVarint64(base_seq));
  uint64_t config_len = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&config_len));
  if (config_len > reader.remaining()) {
    return Status::Corruption("WAL: config overruns header");
  }
  std::string_view config_bytes;
  RETURN_IF_ERROR(reader.GetBytes(static_cast<size_t>(config_len),
                                  &config_bytes));
  const size_t covered = reader.position();
  if (reader.remaining() < kCrcBytes) {
    return Status::Corruption("WAL: header truncated before CRC");
  }
  if (GetFixed32(data.data() + covered) !=
      util::Crc32c(data.data(), covered)) {
    return Status::Corruption("WAL: header CRC mismatch");
  }
  config->assign(config_bytes);
  *header_end = covered + kCrcBytes;
  return Status::OK();
}

}  // namespace

std::string WriteAheadLog::EncodeHeader(std::string_view config,
                                        uint64_t base_seq) {
  std::string out;
  util::PutVarint32(&out, kWalMagic);
  util::PutVarint32(&out, kWalVersion);
  util::PutVarint64(&out, base_seq);
  util::PutVarint64(&out, config.size());
  out.append(config);
  PutFixed32(&out, util::Crc32c(out));
  return out;
}

Status WriteAheadLog::WriteFresh(uint64_t base_seq) {
  const std::string header = EncodeHeader(config_, base_seq);
  RETURN_IF_ERROR(WriteFileDurably(path_, header));
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "r+b");
  if (file_ == nullptr) {
    return Status::IoError("cannot reopen " + path_);
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    return Status::IoError(path_ + ": seek failed");
  }
  base_seq_ = base_seq;
  last_seq_ = base_seq;
  size_bytes_ = header.size();
  return Status::OK();
}

Result<WriteAheadLog::OpenResult> WriteAheadLog::Open(
    const std::string& path, std::string_view config) {
  OpenResult result;
  Result<std::string> read = ReadWholeFile(path);
  if (read.status().IsNotFound()) {
    // Fresh log: header published atomically via tmp + rename.
    std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog(nullptr, path));
    wal->config_.assign(config);
    RETURN_IF_ERROR(wal->WriteFresh(/*base_seq=*/0));
    result.wal = std::move(wal);
    return result;
  }
  RETURN_IF_ERROR(read.status());
  const std::string data = std::move(read).value();

  std::string stored_config;
  uint64_t base_seq = 0;
  size_t offset = 0;
  RETURN_IF_ERROR(ParseHeader(data, &stored_config, &base_seq, &offset));
  if (stored_config != config) {
    return Status::Corruption(path + ": WAL config mismatch (stored \"" +
                              stored_config + "\", expected \"" +
                              std::string(config) + "\")");
  }

  // Replay: accept records until the first torn/corrupt/out-of-sequence
  // one, then drop everything from there on.
  uint64_t expected_seq = base_seq;
  size_t valid_end = offset;
  while (offset < data.size()) {
    util::VarintReader reader(std::string_view(data).substr(offset));
    uint64_t payload_len = 0;
    if (!reader.GetVarint64(&payload_len).ok()) break;
    if (payload_len > reader.remaining() ||
        reader.remaining() - static_cast<size_t>(payload_len) < kCrcBytes) {
      break;  // torn tail
    }
    std::string_view payload;
    if (!reader.GetBytes(static_cast<size_t>(payload_len), &payload).ok()) {
      break;
    }
    const uint32_t stored_crc =
        GetFixed32(data.data() + offset + reader.position());
    if (stored_crc != util::Crc32c(payload)) break;
    util::VarintReader body(payload);
    WalRecord record;
    if (!body.GetVarint64(&record.seq).ok() ||
        !body.GetVarint32(&record.type).ok()) {
      break;
    }
    if (record.seq != expected_seq + 1) break;  // gap/dup/regression
    record.payload.assign(payload.substr(body.position()));
    result.records.push_back(std::move(record));
    expected_seq += 1;
    offset += reader.position() + kCrcBytes;
    valid_end = offset;
  }
  result.tail_truncated = valid_end < data.size();

  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog(file, path));
  wal->config_ = std::move(stored_config);
  wal->base_seq_ = base_seq;
  wal->last_seq_ = expected_seq;
  wal->size_bytes_ = valid_end;
  if (result.tail_truncated) {
    // Physically drop the bad suffix so new appends follow the valid
    // prefix contiguously.
    if (::ftruncate(fileno(file), static_cast<off_t>(valid_end)) != 0) {
      return Status::IoError(path + ": truncate of torn tail failed");
    }
  }
  if (std::fseek(file, static_cast<long>(valid_end), SEEK_SET) != 0) {
    return Status::IoError(path + ": seek failed");
  }
  result.wal = std::move(wal);
  return result;
}

WriteAheadLog::~WriteAheadLog() {
  if (file_ != nullptr) {
    if (std::fflush(file_) != 0) {
      APPROXQL_LOG(Error) << "WAL flush on close failed for " << path_;
    }
    std::fclose(file_);
  }
}

Result<uint64_t> WriteAheadLog::Append(uint32_t type,
                                       std::string_view payload) {
  const uint64_t seq = last_seq_ + 1;
  std::string body;
  body.reserve(payload.size() + 12);
  util::PutVarint64(&body, seq);
  util::PutVarint32(&body, type);
  body.append(payload);
  std::string record;
  record.reserve(body.size() + 10);
  util::PutVarint64(&record, body.size());
  record.append(body);
  PutFixed32(&record, util::Crc32c(body));
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    return Status::IoError(path_ + ": short WAL append");
  }
  last_seq_ = seq;
  size_bytes_ += record.size();
  return seq;
}

Status WriteAheadLog::Sync() { return SyncFile(file_, path_); }

Status WriteAheadLog::Truncate() { return WriteFresh(last_seq_); }

void WriteAheadLog::Abandon() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace approxql::storage
