// Whole-file I/O shared by every on-disk format: the saved database,
// the live-ingest snapshot and corpus.meta files, the layout manifest
// and the write-ahead log's header. Each of those files is replaced
// whole, never edited in place, so one writer gives all of them the same
// crash guarantee; the saved database, snapshot and corpus.meta also
// share one checksum trailer.
#ifndef APPROXQL_STORAGE_FILE_H_
#define APPROXQL_STORAGE_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace approxql::storage {

/// Replaces `path` with `bytes` so that a crash leaves either the old
/// file or the new one, never a mix: writes `path`.tmp (truncating any
/// stale one), fflush, fsync, renames it over `path`, then fsyncs the
/// parent directory so the rename itself reaches media. Any failure is
/// an IoError.
util::Status WriteFileDurably(const std::string& path, std::string_view bytes);

/// The whole content of `path`. A missing file is NotFound; a read
/// failure is IoError.
util::Result<std::string> ReadWholeFile(const std::string& path);

/// Appends the little-endian fixed32 CRC-32C of everything already in
/// `*out`: the trailer that closes a checksummed file.
void AppendCrcTrailer(std::string* out);

/// The bytes of `data` before its CRC-32C trailer. Corruption, naming
/// `what`, when `data` is too short to hold the trailer or the trailer
/// does not match.
util::Result<std::string_view> CheckCrcTrailer(std::string_view data,
                                               std::string_view what);

}  // namespace approxql::storage

#endif  // APPROXQL_STORAGE_FILE_H_
