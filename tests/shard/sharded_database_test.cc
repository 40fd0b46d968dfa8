// Sharded-corpus invariants and the subsystem's core contract: a
// document-partitioned corpus answers every query bit-identically to
// the same corpus in one engine::Database — for both strategies, at
// 1/2/4/8 shards, with the shared cost bound on and off, directly and
// through the query service.
#include "shard/sharded_database.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "engine/database.h"
#include "gen/query_generator.h"
#include "gen/xml_generator.h"
#include "service/query_service.h"
#include "shard/layout_manifest.h"
#include "util/random.h"

namespace approxql::shard {
namespace {

using engine::Database;
using engine::ExecOptions;
using engine::QueryAnswer;
using engine::Strategy;

// ~40 documents of ~100 elements: enough to spread across 8 shards.
Database MakeSyntheticDb() {
  gen::XmlGenOptions options;
  options.seed = 20020314;
  options.total_elements = 4000;
  options.vocabulary = 800;
  gen::XmlGenerator generator(options);
  cost::CostModel model;
  auto tree = generator.GenerateTree(model);
  APPROXQL_CHECK(tree.ok()) << tree.status();
  auto db = Database::FromDataTree(std::move(tree).value(), model);
  APPROXQL_CHECK(db.ok()) << db.status();
  return std::move(db).value();
}

constexpr std::string_view kOrHeavyPattern =
    "name[(name[term] or term) and (term or term) and (name[term] or term)]";

std::vector<gen::GeneratedQuery> MakeQueries(const Database& db) {
  gen::QueryGenOptions options;
  options.seed = 4242;
  options.renamings_per_label = 3;
  gen::QueryGenerator generator(db, options);
  std::vector<gen::GeneratedQuery> queries;
  constexpr std::string_view kPatterns[] = {gen::kPattern1, gen::kPattern2,
                                            gen::kPattern3, kOrHeavyPattern};
  for (size_t i = 0; i < 12; ++i) {
    auto generated = generator.Generate(kPatterns[i % 4]);
    APPROXQL_CHECK(generated.ok()) << generated.status();
    queries.push_back(std::move(generated).value());
  }
  return queries;
}

std::string Canonical(const std::vector<QueryAnswer>& answers) {
  std::string out;
  for (const auto& answer : answers) {
    out += std::to_string(answer.root) + ":" + std::to_string(answer.cost) +
           ";";
  }
  return out;
}

class ShardedDatabaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(MakeSyntheticDb());
    queries_ = new std::vector<gen::GeneratedQuery>(MakeQueries(*db_));
  }
  static void TearDownTestSuite() {
    delete queries_;
    queries_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static ShardedDatabase MakeSharded(size_t num_shards) {
    auto sharded =
        ShardedDatabase::Partition(db_->tree(), db_->cost_model(), num_shards);
    APPROXQL_CHECK(sharded.ok()) << sharded.status();
    return std::move(sharded).value();
  }

  static Database* db_;
  static std::vector<gen::GeneratedQuery>* queries_;
};

Database* ShardedDatabaseTest::db_ = nullptr;
std::vector<gen::GeneratedQuery>* ShardedDatabaseTest::queries_ = nullptr;

TEST_F(ShardedDatabaseTest, PartitionSpanInvariants) {
  for (size_t num_shards : {size_t{1}, size_t{3}, size_t{8}}) {
    ShardedDatabase sharded = MakeSharded(num_shards);
    ASSERT_EQ(sharded.num_shards(), num_shards);

    // Global id space: one shared super-root plus each shard's nodes
    // minus its own super-root.
    size_t nodes = 1;
    size_t documents = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      nodes += sharded.shard(s).tree().size() - 1;
      documents += sharded.shard_spans(s).size();
    }
    EXPECT_EQ(nodes, db_->tree().size());
    auto stats = sharded.GetStats();
    EXPECT_EQ(stats.nodes, db_->tree().size());
    EXPECT_EQ(stats.documents, documents);

    // Per-shard spans are strictly increasing in local and global start,
    // contiguous in the local id space, and translate consistently.
    std::vector<std::pair<doc::NodeId, size_t>> doc_order;
    for (size_t s = 0; s < num_shards; ++s) {
      const auto& spans = sharded.shard_spans(s);
      doc::NodeId expected_local = 1;  // 0 is the shard's super-root
      for (const DocSpan& span : spans) {
        EXPECT_EQ(span.local_start, expected_local);
        expected_local += span.length;
        doc_order.push_back({span.global_start, s});
        for (uint32_t off = 0; off < span.length; ++off) {
          EXPECT_EQ(sharded.ToGlobal(s, span.local_start + off),
                    span.global_start + off);
        }
        // Every node of the span belongs to the document rooted at its
        // global start.
        EXPECT_EQ(sharded.DocRootOf(span.global_start), span.global_start);
        EXPECT_EQ(sharded.DocRootOf(span.global_start + span.length - 1),
                  span.global_start);
      }
      EXPECT_EQ(expected_local, sharded.shard(s).tree().size());
    }

    // Documents in global order alternate round-robin across shards.
    std::sort(doc_order.begin(), doc_order.end());
    for (size_t j = 0; j < doc_order.size(); ++j) {
      EXPECT_EQ(doc_order[j].second, j % num_shards) << "document " << j;
    }
    EXPECT_EQ(sharded.DocRootOf(0), 0u);  // super-root maps to itself
  }
}

TEST_F(ShardedDatabaseTest, DocRootOfMatchesParentWalk) {
  ShardedDatabase sharded = MakeSharded(4);
  util::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    doc::NodeId node =
        1 + static_cast<doc::NodeId>(rng.Uniform(db_->tree().size() - 1));
    doc::NodeId walk = node;
    while (db_->tree().node(walk).parent != 0) {
      walk = db_->tree().node(walk).parent;
    }
    EXPECT_EQ(sharded.DocRootOf(node), walk) << "node " << node;
  }
}

TEST_F(ShardedDatabaseTest, GlobalSchemaMergeReproducesUnpartitionedPaths) {
  // The DataGuide is a path index: partitioning the corpus must not
  // invent or lose any label-type path, whatever the shard count. The
  // union of the shard schemas' paths is the unpartitioned path set.
  std::set<std::string> expected;
  const schema::Schema& schema = db_->schema();
  for (uint32_t c = 0; c < schema.size(); ++c) {
    expected.insert(schema.PathOf(c, db_->tree().labels()));
  }
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ShardedDatabase sharded = MakeSharded(num_shards);
    std::set<std::string> merged;
    for (size_t s = 0; s < num_shards; ++s) {
      const engine::Database& shard_db = sharded.shard(s);
      for (uint32_t c = 0; c < shard_db.schema().size(); ++c) {
        merged.insert(shard_db.schema().PathOf(c, shard_db.tree().labels()));
      }
    }
    EXPECT_EQ(merged, expected) << num_shards;
  }
}

TEST_F(ShardedDatabaseTest, BuilderMatchesPartition) {
  const std::vector<std::string> docs = {
      "<a><b>one two</b><c>three</c></a>",
      "<a><b>four</b></a>",
      "<d><e>five six</e></d>",
      "<a><c>seven</c><c>eight</c></a>",
      "<d><e>nine</e><e>ten</e></d>",
  };
  cost::CostModel model;
  auto single = Database::BuildFromXml(docs, model);
  ASSERT_TRUE(single.ok()) << single.status();

  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{3}}) {
    ShardedDatabase::Builder builder(num_shards);
    for (const std::string& xml : docs) {
      ASSERT_TRUE(builder.AddDocumentXml(xml).ok());
    }
    EXPECT_EQ(builder.document_count(), docs.size());
    auto built = std::move(builder).Build(model);
    ASSERT_TRUE(built.ok()) << built.status();

    auto partitioned =
        ShardedDatabase::Partition(single->tree(), model, num_shards);
    ASSERT_TRUE(partitioned.ok()) << partitioned.status();

    // Same documents, same order, same shard count: identical layout and
    // identical reassembled corpus.
    EXPECT_EQ(built->LayoutFingerprint(), partitioned->LayoutFingerprint());
    EXPECT_EQ(built->MaterializeXml(0), partitioned->MaterializeXml(0));
    EXPECT_EQ(built->MaterializeXml(0), single->MaterializeXml(0));
  }
}

TEST_F(ShardedDatabaseTest, MaterializeXmlMatchesSingleDatabase) {
  ShardedDatabase sharded = MakeSharded(4);
  EXPECT_EQ(sharded.MaterializeXml(0), db_->MaterializeXml(0));
  EXPECT_EQ(sharded.MaterializeXml(0, /*pretty=*/true),
            db_->MaterializeXml(0, /*pretty=*/true));
  util::Rng rng(7);
  int checked = 0;
  while (checked < 50) {
    doc::NodeId node =
        1 + static_cast<doc::NodeId>(rng.Uniform(db_->tree().size() - 1));
    if (db_->tree().node(node).type != NodeType::kStruct) continue;
    EXPECT_EQ(sharded.MaterializeXml(node), db_->MaterializeXml(node))
        << "node " << node;
    ++checked;
  }
}

TEST_F(ShardedDatabaseTest, LayoutFingerprintDistinguishesLayouts) {
  std::set<uint32_t> fingerprints;
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    fingerprints.insert(MakeSharded(num_shards).LayoutFingerprint());
  }
  EXPECT_EQ(fingerprints.size(), 4u);
  // Deterministic for a fixed layout.
  EXPECT_EQ(MakeSharded(4).LayoutFingerprint(),
            MakeSharded(4).LayoutFingerprint());
}

void CheckScatterEquivalence(const Database& db,
                             const std::vector<gen::GeneratedQuery>& queries,
                             const ShardedDatabase& sharded,
                             Strategy strategy) {
  for (const gen::GeneratedQuery& generated : queries) {
    ExecOptions exec;
    exec.strategy = strategy;
    exec.n = 10;
    exec.cost_model = &generated.cost_model;

    engine::SchemaEvalStats single_stats;
    exec.schema_stats_out = &single_stats;
    auto expected = db.Execute(generated.query, exec);
    ASSERT_TRUE(expected.ok()) << generated.text << ": " << expected.status();
    exec.schema_stats_out = nullptr;

    for (bool bound : {true, false}) {
      ScatterOptions scatter;
      scatter.share_cost_bound = bound;
      ScatterStats stats;
      auto answers = sharded.Execute(generated.query, exec, scatter, &stats);
      ASSERT_TRUE(answers.ok())
          << generated.text << " bound=" << bound << ": " << answers.status();
      // Bit-identity holds whenever neither side hit the incremental
      // evaluator's max_k cap (a capped search may legitimately stop
      // with a shorter list; per-shard searches cap at different points
      // than the whole-corpus search).
      if (single_stats.k_capped || stats.schema.k_capped) continue;
      EXPECT_EQ(Canonical(*answers), Canonical(*expected))
          << generated.text << " shards=" << sharded.num_shards()
          << " bound=" << bound;
      ASSERT_EQ(stats.shards.size(), sharded.num_shards());
    }
  }
}

/// The direct-strategy scatter is the plain per-shard engine call and
/// nothing else: its summed counters equal those of `shard(i).Execute`.
/// `scattered` and `plain` are two fresh copies of one layout.
void CheckDirectScatterIsThePlainShardCall(
    const std::vector<gen::GeneratedQuery>& queries,
    const ShardedDatabase& scattered, const ShardedDatabase& plain) {
  for (const gen::GeneratedQuery& generated : queries) {
    ExecOptions exec;
    exec.strategy = Strategy::kDirect;
    exec.n = 10;
    exec.cost_model = &generated.cost_model;
    ScatterStats stats;
    ASSERT_TRUE(
        scattered.Execute(generated.query, exec, ScatterOptions{}, &stats)
            .ok());

    engine::EvalStats sum;
    for (size_t i = 0; i < plain.num_shards(); ++i) {
      engine::EvalStats shard_stats;
      ExecOptions local = exec;
      local.direct_stats_out = &shard_stats;
      ASSERT_TRUE(plain.shard(i).Execute(generated.query, local).ok());
      sum.fetches += shard_stats.fetches;
      sum.entries_fetched += shard_stats.entries_fetched;
      sum.list_ops += shard_stats.list_ops;
    }
    EXPECT_EQ(stats.direct.fetches, sum.fetches) << generated.text;
    EXPECT_EQ(stats.direct.entries_fetched, sum.entries_fetched)
        << generated.text;
    EXPECT_EQ(stats.direct.list_ops, sum.list_ops) << generated.text;
  }
}

TEST_F(ShardedDatabaseTest, ScatterGatherBitIdenticalInline) {
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ShardedDatabase sharded = MakeSharded(num_shards);
    CheckDirectScatterIsThePlainShardCall(*queries_, sharded,
                                          MakeSharded(num_shards));
    CheckScatterEquivalence(*db_, *queries_, sharded, Strategy::kDirect);
    CheckScatterEquivalence(*db_, *queries_, sharded, Strategy::kSchema);
  }
}

TEST_F(ShardedDatabaseTest, SharedCostBoundPublishes) {
  // With several shards and a query that has plenty of answers, some
  // shard must publish a finite bound (its n-th best skeleton cost).
  ShardedDatabase sharded = MakeSharded(4);
  bool saw_finite_bound = false;
  for (const gen::GeneratedQuery& generated : *queries_) {
    ExecOptions exec;
    exec.strategy = Strategy::kSchema;
    exec.n = 5;
    exec.cost_model = &generated.cost_model;
    ScatterOptions scatter;
    ScatterStats stats;
    auto answers = sharded.Execute(generated.query, exec, scatter, &stats);
    ASSERT_TRUE(answers.ok()) << answers.status();
    if (stats.final_bound != cost::kInfinite) saw_finite_bound = true;
  }
  EXPECT_TRUE(saw_finite_bound);
}

TEST_F(ShardedDatabaseTest, CancellationIsDeadlineExceededAcrossShards) {
  ShardedDatabase sharded = MakeSharded(4);
  const gen::GeneratedQuery& generated = queries_->front();
  ExecOptions exec;
  exec.strategy = Strategy::kSchema;
  exec.n = 10;
  exec.cost_model = &generated.cost_model;
  ScatterOptions scatter;
  scatter.cancelled = [] { return true; };
  ScatterStats stats;
  auto answers = sharded.Execute(generated.query, exec, scatter, &stats);
  // A partial scatter is not a correct prefix of the global ranking.
  EXPECT_FALSE(answers.ok());
  EXPECT_TRUE(answers.status().IsDeadlineExceeded()) << answers.status();
  EXPECT_TRUE(stats.cancelled);
}

/// How many evaluations shard `shard` has recorded: the count of its
/// `shardK_eval_us` histogram in the metrics dump.
uint64_t ShardEvalCount(const ShardedDatabase& sharded, size_t shard) {
  const std::string dump = sharded.DumpMetrics();
  const std::string key = "shard" + std::to_string(shard) + "_eval_us count=";
  const size_t at = dump.find(key);
  APPROXQL_CHECK(at != std::string::npos) << key << " missing:\n" << dump;
  return std::stoull(dump.substr(at + key.size()));
}

TEST_F(ShardedDatabaseTest, DeadlineBetweenShardsSkipsTheRemainingShards) {
  // The hook turns true only once shard 0 has finished (its evaluation
  // is recorded), so shard 0 runs to completion and the check before
  // shard 1 fires: the request fails and shards 1..3 never run.
  ShardedDatabase sharded = MakeSharded(4);
  const gen::GeneratedQuery& generated = queries_->front();
  for (Strategy strategy : {Strategy::kSchema, Strategy::kDirect}) {
    ExecOptions exec;
    exec.strategy = strategy;
    exec.n = 10;
    exec.cost_model = &generated.cost_model;
    std::vector<uint64_t> before(sharded.num_shards());
    for (size_t s = 0; s < before.size(); ++s) {
      before[s] = ShardEvalCount(sharded, s);
    }
    ScatterOptions scatter;
    scatter.cancelled = [&] { return ShardEvalCount(sharded, 0) > before[0]; };
    ScatterStats stats;
    auto answers = sharded.Execute(generated.query, exec, scatter, &stats);
    EXPECT_FALSE(answers.ok());
    EXPECT_TRUE(answers.status().IsDeadlineExceeded()) << answers.status();
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(ShardEvalCount(sharded, 0), before[0] + 1);
    for (size_t s = 1; s < before.size(); ++s) {
      EXPECT_EQ(ShardEvalCount(sharded, s), before[s]) << "shard " << s;
    }
  }
}

TEST_F(ShardedDatabaseTest, QueryServiceShardedBackendMatchesSingle) {
  // For both strategies and every shard count: through ExecuteNow
  // (including a cached repeat) and through admission, where concurrent
  // Submits run on different workers. Each request scatters serially on
  // its worker, so every concurrent answer equals that query's ExecuteNow
  // answer, k-capped queries included; only the comparison with the
  // single database skips queries that hit the max_k cap.
  service::ServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 64;
  options.cache_capacity = 8;
  service::QueryService single_service(*db_, options);
  const size_t count = queries_->size();

  auto make_request = [](const gen::GeneratedQuery& generated,
                         Strategy strategy) {
    service::QueryRequest request;
    request.query_text = generated.text;
    request.exec.strategy = strategy;
    request.exec.n = 10;
    request.exec.cost_model = &generated.cost_model;
    return request;
  };

  for (Strategy strategy : {Strategy::kSchema, Strategy::kDirect}) {
    std::vector<std::string> expected(count);
    std::vector<bool> single_capped(count);
    for (size_t i = 0; i < count; ++i) {
      service::QueryRequest request = make_request((*queries_)[i], strategy);
      engine::SchemaEvalStats single_stats;
      request.exec.schema_stats_out = &single_stats;
      request.bypass_cache = true;
      service::QueryResponse response = single_service.ExecuteNow(request);
      ASSERT_TRUE(response.status.ok()) << response.status;
      expected[i] = Canonical(response.answers);
      single_capped[i] = single_stats.k_capped;
    }

    for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      ShardedDatabase sharded = MakeSharded(num_shards);
      service::QueryService sharded_service(sharded, options);
      std::vector<std::string> now(count);
      std::vector<bool> now_capped(count);
      std::vector<engine::SchemaEvalStats> submit_stats(count);
      std::vector<std::future<service::QueryResponse>> futures;
      for (size_t i = 0; i < count; ++i) {
        const gen::GeneratedQuery& generated = (*queries_)[i];
        service::QueryRequest request = make_request(generated, strategy);
        engine::SchemaEvalStats sharded_stats;
        request.exec.schema_stats_out = &sharded_stats;
        service::QueryResponse first = sharded_service.ExecuteNow(request);
        ASSERT_TRUE(first.status.ok()) << first.status;
        now[i] = Canonical(first.answers);
        now_capped[i] = sharded_stats.k_capped;
        service::QueryResponse second = sharded_service.ExecuteNow(request);
        ASSERT_TRUE(second.status.ok()) << second.status;
        EXPECT_TRUE(second.cache_hit) << generated.text;
        EXPECT_EQ(Canonical(second.answers), now[i]);
        if (!single_capped[i] && !now_capped[i]) {
          EXPECT_EQ(now[i], expected[i])
              << generated.text << " shards=" << num_shards;
        }

        request.exec.schema_stats_out = &submit_stats[i];
        request.bypass_cache = true;
        futures.push_back(sharded_service.Submit(std::move(request)));
      }
      for (size_t i = 0; i < count; ++i) {
        service::QueryResponse response = futures[i].get();
        ASSERT_TRUE(response.status.ok())
            << (*queries_)[i].text << ": " << response.status;
        EXPECT_EQ(Canonical(response.answers), now[i])
            << (*queries_)[i].text << " submitted, shards=" << num_shards;
        EXPECT_EQ(submit_stats[i].k_capped, now_capped[i])
            << (*queries_)[i].text << " submitted, shards=" << num_shards;
      }
      // The sharded service's metrics dump carries the per-shard
      // sections.
      EXPECT_NE(sharded_service.DumpMetrics().find("shard0_"),
                std::string::npos);
    }
  }
}

TEST_F(ShardedDatabaseTest, LayoutManifestMirrorsTheLayout) {
  for (size_t num_shards : {size_t{1}, size_t{3}, size_t{8}}) {
    ShardedDatabase sharded = MakeSharded(num_shards);
    const LayoutManifest& manifest = sharded.layout();

    EXPECT_EQ(manifest.num_shards(), num_shards);
    EXPECT_EQ(manifest.fingerprint(), sharded.LayoutFingerprint());
    EXPECT_EQ(manifest.cost_model().ToConfigString(),
              sharded.cost_model().ToConfigString());
    EXPECT_EQ(manifest.documents().size(), sharded.GetStats().documents);

    // Every translation the router performs lands on the same node of
    // the unpartitioned tree, and ToLocal inverts it.
    for (size_t s = 0; s < num_shards; ++s) {
      const doc::DataTree& shard_tree = sharded.shard(s).tree();
      for (doc::NodeId local = 1; local < shard_tree.size(); ++local) {
        std::optional<doc::NodeId> global = manifest.ToGlobal(s, local);
        ASSERT_TRUE(global.has_value()) << "shard " << s << " node " << local;
        EXPECT_EQ(shard_tree.labels().Get(shard_tree.node(local).label),
                  db_->tree().labels().Get(db_->tree().node(*global).label));
        uint32_t back_shard = 0;
        doc::NodeId back_local = 0;
        ASSERT_TRUE(manifest.ToLocal(*global, &back_shard, &back_local));
        EXPECT_EQ(back_shard, s);
        EXPECT_EQ(back_local, local);
      }
      EXPECT_EQ(manifest.ToGlobal(s, 0), doc::NodeId{0});  // super-root
      // Past the shard's last span there is no translation, not a guess.
      EXPECT_FALSE(manifest.ToGlobal(s, shard_tree.size()).has_value());
    }
    util::Rng rng(7 * num_shards + 1);
    for (int i = 0; i < 100; ++i) {
      doc::NodeId node =
          static_cast<doc::NodeId>(rng.Uniform(db_->tree().size()));
      EXPECT_EQ(manifest.DocRootOf(node), sharded.DocRootOf(node))
          << "node " << node;
    }
  }
}

TEST_F(ShardedDatabaseTest, LayoutManifestSerializeRoundTrips) {
  ShardedDatabase sharded = MakeSharded(4);
  LayoutManifest manifest = sharded.layout();
  const std::string blob = manifest.Serialize();

  auto restored = LayoutManifest::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->fingerprint(), manifest.fingerprint());
  EXPECT_EQ(restored->num_shards(), manifest.num_shards());
  EXPECT_EQ(restored->cost_model().ToConfigString(),
            manifest.cost_model().ToConfigString());
  for (size_t s = 0; s < manifest.num_shards(); ++s) {
    ASSERT_EQ(restored->shard_spans(s).size(), manifest.shard_spans(s).size());
    for (size_t d = 0; d < manifest.shard_spans(s).size(); ++d) {
      const DocSpan& a = manifest.shard_spans(s)[d];
      const DocSpan& b = restored->shard_spans(s)[d];
      EXPECT_EQ(a.local_start, b.local_start);
      EXPECT_EQ(a.global_start, b.global_start);
      EXPECT_EQ(a.length, b.length);
    }
  }
  util::Rng rng(515);
  for (int i = 0; i < 100; ++i) {
    doc::NodeId node =
        static_cast<doc::NodeId>(rng.Uniform(db_->tree().size()));
    EXPECT_EQ(restored->DocRootOf(node), sharded.DocRootOf(node));
  }

  // Corruption anywhere in the blob must be caught, not mistranslated.
  for (size_t pos : {size_t{0}, blob.size() / 2, blob.size() - 1}) {
    std::string corrupt = blob;
    corrupt[pos] ^= 0x40;
    EXPECT_FALSE(LayoutManifest::Deserialize(corrupt).ok())
        << "flip at " << pos;
  }
  EXPECT_FALSE(LayoutManifest::Deserialize(blob.substr(0, 10)).ok());
  EXPECT_FALSE(LayoutManifest::Deserialize("").ok());
}

TEST_F(ShardedDatabaseTest, LayoutManifestSaveLoadRoundTrips) {
  ShardedDatabase sharded = MakeSharded(2);
  LayoutManifest manifest = sharded.layout();
  const std::string path =
      ::testing::TempDir() + "/approxql_layout_manifest_test.aqlm";
  ASSERT_TRUE(manifest.SaveTo(path).ok());
  auto loaded = LayoutManifest::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->Serialize(), manifest.Serialize());
  std::remove(path.c_str());
  EXPECT_FALSE(LayoutManifest::LoadFrom(path).ok());  // gone now
}

}  // namespace
}  // namespace approxql::shard
