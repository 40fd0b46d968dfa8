#include "engine/database.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "storage/file.h"

namespace approxql::engine {
namespace {

using cost::CostModel;

std::vector<std::string> CatalogDocs() {
  return {
      "<catalog><cd><title>piano concerto</title>"
      "<composer>rachmaninov</composer></cd></catalog>",
      "<catalog><cd><title>goldberg variations</title>"
      "<composer>bach</composer></cd></catalog>",
  };
}

CostModel SomeCosts() {
  CostModel model;
  model.SetRenameCost(NodeType::kText, "concerto", "variations", 3);
  model.SetDeleteCost(NodeType::kText, "piano", 5);
  return model;
}

TEST(DatabaseTest, BuildAndExecuteBothStrategies) {
  auto db = Database::BuildFromXml(CatalogDocs(), SomeCosts());
  ASSERT_TRUE(db.ok()) << db.status();
  for (Strategy strategy :
       {Strategy::kDirect, Strategy::kSchema, Strategy::kFullScan}) {
    ExecOptions options;
    options.strategy = strategy;
    options.n = SIZE_MAX;
    auto answers = db->Execute(R"(cd[title["piano" and "concerto"]])", options);
    ASSERT_TRUE(answers.ok()) << answers.status();
    ASSERT_EQ(answers->size(), 2u) << static_cast<int>(strategy);
    EXPECT_EQ((*answers)[0].cost, 0);
    // Second doc: delete piano (5) + rename concerto->variations (3) = 8.
    EXPECT_EQ((*answers)[1].cost, 8);
  }
}

TEST(DatabaseTest, MaterializeXmlReturnsSubtree) {
  auto db = Database::BuildFromXml(CatalogDocs(), SomeCosts());
  ASSERT_TRUE(db.ok());
  ExecOptions options;
  options.n = 1;
  auto answers = db->Execute(R"(cd[composer["bach"]])", options);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  std::string xml = db->MaterializeXml((*answers)[0].root);
  EXPECT_EQ(xml,
            "<cd><title>goldberg variations</title>"
            "<composer>bach</composer></cd>");
}

TEST(DatabaseTest, ParseErrorsPropagate) {
  auto db = Database::BuildFromXml(CatalogDocs(), CostModel());
  ASSERT_TRUE(db.ok());
  ExecOptions options;
  auto answers = db->Execute("cd[oops", options);
  ASSERT_FALSE(answers.ok());
  EXPECT_TRUE(answers.status().IsParseError());
}

TEST(DatabaseTest, BadXmlRejected) {
  auto db = Database::BuildFromXml({"<a><b></a>"}, CostModel());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsParseError());
}

TEST(DatabaseTest, PerQueryCostModelOverride) {
  auto db = Database::BuildFromXml(CatalogDocs(), CostModel());
  ASSERT_TRUE(db.ok());
  ExecOptions options;
  options.n = SIZE_MAX;
  // Without transformations: only the exact match.
  auto strict = db->Execute(R"(cd[title["piano"]])", options);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->size(), 1u);
  // Query-specific renaming piano->goldberg widens the result.
  CostModel relaxed;
  relaxed.SetRenameCost(NodeType::kText, "piano", "goldberg", 2);
  options.cost_model = &relaxed;
  auto loose = db->Execute(R"(cd[title["piano"]])", options);
  ASSERT_TRUE(loose.ok());
  ASSERT_EQ(loose->size(), 2u);
  EXPECT_EQ((*loose)[1].cost, 2);
}

TEST(DatabaseTest, BuildFromFiles) {
  auto dir = std::filesystem::temp_directory_path() /
             ("approxql_files_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto docs = CatalogDocs();
  std::vector<std::string> paths;
  for (size_t i = 0; i < docs.size(); ++i) {
    auto path = dir / ("doc" + std::to_string(i) + ".xml");
    std::ofstream(path) << docs[i];
    paths.push_back(path.string());
  }
  auto db = Database::BuildFromFiles(paths, CostModel());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->GetStats().struct_nodes, 9u);

  // Missing file: NotFound naming the path, as Database::Load says.
  paths.push_back((dir / "missing.xml").string());
  auto missing = Database::BuildFromFiles(paths, CostModel());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("missing.xml"), std::string::npos);

  // Malformed file: error names the offending path.
  paths.pop_back();
  auto bad_path = dir / "bad.xml";
  std::ofstream(bad_path) << "<a><b></a>";
  paths.push_back(bad_path.string());
  auto bad = Database::BuildFromFiles(paths, CostModel());
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("bad.xml"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(DatabaseTest, PerQueryInsertCostChangeRejected) {
  auto db = Database::BuildFromXml(CatalogDocs(), CostModel());
  ASSERT_TRUE(db.ok());
  CostModel different;
  different.set_default_insert_cost(3);  // disagrees with the build model
  ExecOptions options;
  options.cost_model = &different;
  auto answers = db->Execute(R"(cd[title["piano"]])", options);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), util::StatusCode::kInvalidArgument);
  auto stream = db->ExecuteStream(R"(cd[title["piano"]])", options);
  EXPECT_FALSE(stream.ok());
  auto explanations = db->Explain(R"(cd[title["piano"]])", options);
  EXPECT_FALSE(explanations.ok());
}

TEST(DatabaseTest, GetStats) {
  auto db = Database::BuildFromXml(CatalogDocs(), CostModel());
  ASSERT_TRUE(db.ok());
  auto stats = db->GetStats();
  EXPECT_EQ(stats.nodes, stats.struct_nodes + stats.text_nodes);
  // 1 super-root + 2*(catalog+cd+title+composer) = 9 struct nodes.
  EXPECT_EQ(stats.struct_nodes, 9u);
  // piano, concerto, rachmaninov + goldberg, variations, bach.
  EXPECT_EQ(stats.text_nodes, 6u);
  EXPECT_GT(stats.schema_nodes, 4u);
}

TEST(DatabaseTest, SaveLoadRoundTrip) {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("approxql_db_" + std::to_string(::getpid())))
                         .string();
  std::filesystem::remove(path);
  {
    auto db = Database::BuildFromXml(CatalogDocs(), SomeCosts());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->Save(path).ok());
  }
  auto loaded = Database::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // Rebuild fresh for comparison.
  auto fresh = Database::BuildFromXml(CatalogDocs(), SomeCosts());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(loaded->tree().size(), fresh->tree().size());
  EXPECT_EQ(loaded->schema().size(), fresh->schema().size());

  // Loaded label index identical to the rebuilt one.
  for (NodeType type : {NodeType::kStruct, NodeType::kText}) {
    ASSERT_EQ(loaded->label_index().postings(type).size(),
              fresh->label_index().postings(type).size());
    for (const auto& [label, posting] : fresh->label_index().postings(type)) {
      const index::Posting* got = loaded->label_index().Fetch(type, label);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, posting);
    }
  }

  // Queries behave identically on the loaded database.
  for (Strategy strategy : {Strategy::kDirect, Strategy::kSchema}) {
    ExecOptions options;
    options.strategy = strategy;
    options.n = SIZE_MAX;
    auto a = loaded->Execute(R"(cd[title["piano" and "concerto"]])", options);
    auto b = fresh->Execute(R"(cd[title["piano" and "concerto"]])", options);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].root, (*b)[i].root);
      EXPECT_EQ((*a)[i].cost, (*b)[i].cost);
    }
  }
  std::filesystem::remove(path);
}

TEST(DatabaseTest, LoadMissingFileFails) {
  auto loaded = Database::Load("/nonexistent/path/db.approxql");
  EXPECT_FALSE(loaded.ok());
}

// The saved-database file is read from untrusted disks: every damaged
// variant must come back as a clean error, never a crash or a database
// built from garbage, and saving must be a pure function of the content.
TEST(DatabaseTest, SavedFileRejectsHostileBytes) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("approxql_hostile_" + std::to_string(::getpid())))
                               .string();
  auto db = Database::BuildFromXml(CatalogDocs(), SomeCosts());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Save(path).ok());
  auto read = storage::ReadWholeFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  const std::string saved = *read;
  ASSERT_TRUE(Database::Deserialize(saved).ok());

  // Saving the same database again, or the loaded copy, gives the same
  // bytes.
  ASSERT_TRUE(db->Save(path).ok());
  read = storage::ReadWholeFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, saved);
  auto loaded = Database::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->Serialize(), saved);

  for (size_t cut = 0; cut < saved.size(); ++cut) {
    EXPECT_FALSE(Database::Deserialize(saved.substr(0, cut)).ok()) << cut;
  }
  EXPECT_FALSE(Database::Deserialize(saved + '\0').ok());
  for (size_t pos = 0; pos < saved.size(); ++pos) {
    for (int mask : {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff}) {
      std::string flipped = saved;
      flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
      auto result = Database::Deserialize(flipped);
      ASSERT_FALSE(result.ok()) << "byte " << pos << " mask " << mask;
      EXPECT_TRUE(result.status().IsCorruption()) << result.status();
    }
  }

  // A damaged file on disk fails Load the same way, naming the file.
  ASSERT_TRUE(
      storage::WriteFileDurably(path, saved.substr(0, saved.size() / 2)).ok());
  auto truncated = Database::Load(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.status().IsCorruption()) << truncated.status();
  EXPECT_NE(truncated.status().message().find(path), std::string::npos);
  std::filesystem::remove(path);
}

// Older versions saved a page-based B+tree store; those files are
// refused as a foreign format, not migrated.
TEST(DatabaseTest, LoadRefusesOldPageStoreFormat) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("approxql_oldfmt_" + std::to_string(::getpid())))
                               .string();
  // Page 0 of the old store: little-endian magic "APQ2", page size 4096,
  // page count 1, empty freelist, zero-filled to a whole page.
  std::string page(4096, '\0');
  const uint32_t header[] = {0x41505132, 4096, 1, 0};
  for (size_t i = 0; i < 4; ++i) {
    for (size_t b = 0; b < 4; ++b) {
      page[i * 4 + b] = static_cast<char>((header[i] >> (8 * b)) & 0xff);
    }
  }
  ASSERT_TRUE(storage::WriteFileDurably(path, page).ok());
  auto loaded = Database::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
      << loaded.status();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace approxql::engine
