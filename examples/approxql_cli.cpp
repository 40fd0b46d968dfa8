// Command-line shell around the library: load XML files (or a saved
// database), then run approXQL queries interactively or one-shot.
//
//   approxql_cli --xml catalog.xml [--xml more.xml] [--costs costs.txt]
//                [--save db.apx] [--strategy schema|direct|scan]
//                [--n 10] [--explain] [--query '<approxql>']
//   approxql_cli --load db.apx --query 'cd[title["piano"]]'
//
// Without --query, reads queries from stdin (one per line). With
// --explain, prints the ranked second-level queries (schema paths and
// how many results each retrieves) instead of the results.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "gen/query_file.h"
#include "storage/file.h"
#include "util/string_util.h"
#include "util/timer.h"

using approxql::cost::CostModel;
using approxql::engine::Database;
using approxql::engine::ExecOptions;
using approxql::engine::Strategy;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: approxql_cli (--xml FILE)... [--costs FILE] [--save DB]\n"
      "       approxql_cli --load DB\n"
      "       options: --strategy schema|direct|scan  --n N  --query Q\n"
      "                --queryfile FILE (query + cost table in one file)\n"
      "                --explain (show ranked second-level queries)\n");
  return 2;
}

void RunQuery(const Database& db, const std::string& text,
              const ExecOptions& options, bool explain) {
  approxql::util::WallTimer timer;
  if (explain) {
    auto explanations = db.Explain(text, options);
    if (!explanations.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   explanations.status().ToString().c_str());
      return;
    }
    std::printf("%zu second-level quer%s in %.2f ms\n", explanations->size(),
                explanations->size() == 1 ? "y" : "ies",
                timer.ElapsedSeconds() * 1000.0);
    for (const auto& explanation : *explanations) {
      std::printf("cost %lld (%zu results): %s\n",
                  static_cast<long long>(explanation.cost),
                  explanation.result_count, explanation.skeleton.c_str());
    }
    return;
  }
  auto answers = db.Execute(text, options);
  double ms = timer.ElapsedSeconds() * 1000.0;
  if (!answers.ok()) {
    std::fprintf(stderr, "error: %s\n", answers.status().ToString().c_str());
    return;
  }
  std::printf("%zu result(s) in %.2f ms\n", answers->size(), ms);
  for (const auto& answer : *answers) {
    std::printf("cost %lld: %s\n", static_cast<long long>(answer.cost),
                db.MaterializeXml(answer.root).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> xml_paths;
  std::string costs_path, save_path, load_path, query, query_file_path;
  bool explain = false;
  ExecOptions options;
  options.strategy = Strategy::kSchema;
  options.n = 10;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--xml") {
      const char* v = next();
      if (v == nullptr) return Usage();
      xml_paths.push_back(v);
    } else if (arg == "--costs") {
      const char* v = next();
      if (v == nullptr) return Usage();
      costs_path = v;
    } else if (arg == "--save") {
      const char* v = next();
      if (v == nullptr) return Usage();
      save_path = v;
    } else if (arg == "--load") {
      const char* v = next();
      if (v == nullptr) return Usage();
      load_path = v;
    } else if (arg == "--query") {
      const char* v = next();
      if (v == nullptr) return Usage();
      query = v;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--queryfile") {
      const char* v = next();
      if (v == nullptr) return Usage();
      query_file_path = v;
    } else if (arg == "--n") {
      const char* v = next();
      if (v == nullptr) return Usage();
      uint64_t n = SIZE_MAX;
      if (std::strcmp(v, "all") != 0 && !approxql::util::ParseUint64(v, &n)) {
        return Usage();
      }
      options.n = static_cast<size_t>(n);
    } else if (arg == "--strategy") {
      const char* v = next();
      if (v == nullptr) return Usage();
      if (std::strcmp(v, "schema") == 0) {
        options.strategy = Strategy::kSchema;
      } else if (std::strcmp(v, "direct") == 0) {
        options.strategy = Strategy::kDirect;
      } else if (std::strcmp(v, "scan") == 0) {
        options.strategy = Strategy::kFullScan;
      } else {
        return Usage();
      }
    } else {
      return Usage();
    }
  }

  std::unique_ptr<Database> db;
  if (!load_path.empty()) {
    auto loaded = Database::Load(load_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    db = std::make_unique<Database>(std::move(loaded).value());
  } else if (!xml_paths.empty()) {
    CostModel model;
    if (!costs_path.empty()) {
      auto config = approxql::storage::ReadWholeFile(costs_path);
      if (!config.ok()) {
        std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
        return 1;
      }
      auto parsed = CostModel::ParseConfig(*config);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 1;
      }
      model = std::move(parsed).value();
    }
    auto built = Database::BuildFromFiles(xml_paths, std::move(model));
    if (!built.ok()) {
      std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
      return 1;
    }
    db = std::make_unique<Database>(std::move(built).value());
  } else {
    return Usage();
  }

  auto stats = db->GetStats();
  std::fprintf(stderr, "database: %zu nodes, %zu labels, schema %zu\n",
               stats.nodes, stats.distinct_labels, stats.schema_nodes);

  if (!save_path.empty()) {
    auto s = db->Save(save_path);
    if (!s.ok()) {
      std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved to %s\n", save_path.c_str());
  }

  // A query file carries both the query and its transformation costs.
  approxql::gen::GeneratedQuery from_file;
  if (!query_file_path.empty()) {
    auto content = approxql::storage::ReadWholeFile(query_file_path);
    if (!content.ok()) {
      std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
      return 1;
    }
    auto parsed = approxql::gen::ParseQueryFile(*content);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    from_file = std::move(parsed).value();
    options.cost_model = &from_file.cost_model;
    query = from_file.text;
  }

  if (!query.empty()) {
    RunQuery(*db, query, options, explain);
    return 0;
  }
  std::string line;
  std::fprintf(stderr, "enter approXQL queries, one per line (^D ends):\n");
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    RunQuery(*db, line, options, explain);
  }
  return 0;
}
