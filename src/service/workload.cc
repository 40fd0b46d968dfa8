#include "service/workload.h"

#include "query/ast.h"
#include "storage/file.h"

namespace approxql::service {

std::string WorkloadError::ToString() const {
  return "line " + std::to_string(line) + ": `" + text +
         "`: " + status.ToString();
}

Workload ScanWorkload(std::string_view text) {
  Workload workload;
  size_t line_number = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    // Trim whitespace; skip blanks and comments.
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t' ||
                             line.front() == '\r')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    auto parsed = query::Parse(line);
    if (!parsed.ok()) {
      workload.errors.push_back(
          {line_number, std::string(line), parsed.status()});
      continue;
    }
    workload.queries.emplace_back(line);
  }
  return workload;
}

util::Result<std::vector<std::string>> ParseWorkload(std::string_view text) {
  Workload workload = ScanWorkload(text);
  if (!workload.errors.empty()) {
    const WorkloadError& first = workload.errors.front();
    return util::Status(first.status.code(),
                        "workload " + first.ToString() +
                            (workload.errors.size() > 1
                                 ? " (+" +
                                       std::to_string(workload.errors.size() -
                                                      1) +
                                       " more bad lines)"
                                 : ""));
  }
  if (workload.queries.empty()) {
    return util::Status::InvalidArgument("workload contains no queries");
  }
  return std::move(workload.queries);
}

util::Result<std::vector<std::string>> LoadWorkloadFile(
    const std::string& path) {
  ASSIGN_OR_RETURN(std::string text, storage::ReadWholeFile(path));
  return ParseWorkload(text);
}

}  // namespace approxql::service
