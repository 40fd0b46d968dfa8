// Regenerates the checked-in fuzz corpora (fuzz/corpus/<target>/...)
// deterministically from the library's own encoders. Two kinds of files:
//
//   seed-*   representative well-formed inputs, so coverage-guided runs
//            start from deep program states instead of garbage;
//   crash-*  regression inputs for found-and-fixed bugs (hostile counts,
//            pathological nesting). They must keep failing cleanly —
//            tests/fuzz/fuzz_corpus_test.cc replays everything here on
//            every tier-1 run.
//
// Usage: fuzz_gen_seeds [corpus-dir]   (default: fuzz/corpus)

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "cost/cost_model.h"
#include "doc/data_tree.h"
#include "engine/database.h"
#include "net/wire.h"
#include "shard/layout_manifest.h"
#include "storage/wal/wal.h"
#include "util/varint.h"

namespace {

namespace fs = std::filesystem;
using namespace approxql;  // NOLINT: generator tool, brevity wins

int g_files = 0;

void WriteSeed(const fs::path& root, const std::string& target,
               const std::string& name, std::string_view bytes) {
  const fs::path dir = root / target;
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::cerr << "write failed: " << (dir / name) << "\n";
    std::exit(1);
  }
  ++g_files;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string PutString(std::string_view s) {
  std::string out;
  util::PutVarint64(&out, s.size());
  out += s;
  return out;
}

// One frame with the given type/payload, or exits on encode failure.
std::string Frame(uint64_t request_id, net::MessageType type,
                  std::string_view payload) {
  net::FrameHeader header;
  header.request_id = request_id;
  header.type = static_cast<uint32_t>(type);
  std::string out;
  if (!net::EncodeFrame(header, payload, &out).ok()) std::exit(1);
  return out;
}

constexpr uint64_t kHugeCount = uint64_t{1} << 40;

net::WireRequest SampleRequest() {
  net::WireRequest request;
  request.query = "cd[title and 'piano']";
  request.n = 10;
  request.deadline_ms = 250;
  request.min_epochs = {3, 0, 7};
  return request;
}

net::WireResponse SampleResponse() {
  net::WireResponse response;
  response.status_code = 0;
  response.degraded = true;
  response.missing_shards = {1};
  response.backend_epoch = 12;
  response.answers = {{0, 5, 2}, {3, 9, 2}};
  return response;
}

net::WireShardAnswer SampleShardAnswer() {
  net::WireShardAnswer answer;
  answer.fingerprint = 0xabcdef01;
  answer.shard_index = 2;
  answer.achieved_bound = 4;
  answer.backend_epoch = 9;
  answer.answers = {{0, 5, 0}, {2, 8, 0}};
  return answer;
}

net::WireManifestSlice SampleSlice() {
  net::WireManifestSlice slice;
  slice.shard_index = 1;
  slice.epoch = 5;
  slice.fingerprint = 0x1234;
  slice.spans = {{1, 1, 4}, {5, 9, 2}};
  return slice;
}

std::string ManifestPreamble() {
  std::string out;
  util::PutVarint32(&out, 0x41514c4d);  // kMagic in layout_manifest.cc
  util::PutVarint32(&out, 1);           // version
  util::PutVarint32(&out, 42);          // fingerprint
  out += PutString(cost::CostModel().ToConfigString());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? argv[1] : "fuzz/corpus";
  const fs::path tmp =
      fs::temp_directory_path() /
      ("approxql_gen_seeds_" + std::to_string(::getpid()));
  fs::create_directories(tmp);

  // --- frame_decoder ---
  {
    std::string pipelined;
    pipelined.push_back(static_cast<char>(0xff));  // chunk size 256
    pipelined += Frame(1, net::MessageType::kQueryRequest,
                       net::EncodeQueryRequest(SampleRequest()));
    pipelined += Frame(1, net::MessageType::kQueryResponse,
                       net::EncodeQueryResponse(SampleResponse()));
    WriteSeed(root, "frame_decoder", "seed-pipelined", pipelined);

    std::string split;
    split.push_back(2);  // chunk size 3: every frame arrives torn
    split += Frame(7, net::MessageType::kPing, "");
    split += Frame(0, net::MessageType::kManifestDelta,
                   net::EncodeManifestDelta({}));
    WriteSeed(root, "frame_decoder", "seed-split-frames", split);
  }

  // --- wire payload targets ---
  WriteSeed(root, "wire_query_request", "seed-basic",
            net::EncodeQueryRequest(net::WireRequest{}));
  WriteSeed(root, "wire_query_request", "seed-epochs",
            net::EncodeQueryRequest(SampleRequest()));
  {
    // Regression: min-epoch count claiming 2^40 entries (capped against
    // remaining payload since wire hardening).
    std::string hostile;
    hostile += PutString("a");
    util::PutVarint32(&hostile, 1);  // strategy kSchema
    util::PutVarint64(&hostile, 10);
    util::PutVarint32(&hostile, 1);
    util::PutVarint64(&hostile, 0);
    util::PutVarint32(&hostile, 0);
    util::PutVarint64(&hostile, kHugeCount);
    WriteSeed(root, "wire_query_request", "crash-huge-epoch-count", hostile);
  }

  WriteSeed(root, "wire_query_response", "seed-basic",
            net::EncodeQueryResponse(SampleResponse()));
  {
    std::string hostile;
    util::PutVarint32(&hostile, 0);
    hostile += PutString("");
    util::PutVarint32(&hostile, 0);
    util::PutVarint64(&hostile, 0);
    util::PutVarint64(&hostile, 7);
    util::PutVarint64(&hostile, kHugeCount);  // answer count
    WriteSeed(root, "wire_query_response", "crash-huge-answer-count", hostile);
  }

  {
    net::WireShardQuery query;
    query.query = "person[name and 'alan']";
    query.n = 5;
    query.cost_bound = 9;
    query.deadline_ms = 100;
    WriteSeed(root, "wire_shard_query", "seed-basic",
              net::EncodeShardQuery(query));
  }

  WriteSeed(root, "wire_shard_answer", "seed-basic",
            net::EncodeShardAnswer(SampleShardAnswer()));
  {
    std::string hostile;
    util::PutVarint32(&hostile, 0);
    hostile += PutString("");
    util::PutVarint32(&hostile, 0);
    util::PutVarint32(&hostile, 0);
    util::PutVarint64(&hostile, 0);
    util::PutVarint32(&hostile, 0);
    util::PutVarint64(&hostile, 0);
    util::PutVarint64(&hostile, kHugeCount);  // answer count
    WriteSeed(root, "wire_shard_answer", "crash-huge-answer-count", hostile);
  }

  {
    net::WirePong pong;
    pong.fingerprint = 0xfeed;
    pong.shard_index = 3;
    pong.epoch = 21;
    WriteSeed(root, "wire_pong", "seed-basic", net::EncodePong(pong));
  }

  {
    net::WireIngest add;
    add.op = net::WireIngest::Op::kAdd;
    add.xml = "<cd><title>Piano Concerto</title></cd>";
    add.assigned_global = 17;
    WriteSeed(root, "wire_ingest", "seed-add", net::EncodeIngest(add));
    net::WireIngest remove;
    remove.op = net::WireIngest::Op::kRemove;
    remove.doc_root = 17;
    WriteSeed(root, "wire_ingest", "seed-remove", net::EncodeIngest(remove));
  }

  {
    net::WireIngestAck ack;
    ack.seq = 4;
    ack.epoch = 11;
    ack.doc_root = 17;
    ack.shard_index = 1;
    ack.length = 6;
    WriteSeed(root, "wire_ingest_ack", "seed-basic",
              net::EncodeIngestAck(ack));
  }

  {
    net::WireManifestFetch fetch;
    WriteSeed(root, "wire_manifest_fetch", "seed-basic",
              net::EncodeManifestFetch(fetch));
    fetch.subscribe = true;
    WriteSeed(root, "wire_manifest_fetch", "seed-subscribe",
              net::EncodeManifestFetch(fetch));
  }

  WriteSeed(root, "wire_manifest_slice", "seed-basic",
            net::EncodeManifestSlice(SampleSlice()));
  {
    std::string hostile;
    util::PutVarint32(&hostile, 0);
    hostile += PutString("");
    util::PutVarint32(&hostile, 0);
    util::PutVarint64(&hostile, 0);
    util::PutVarint32(&hostile, 0);
    util::PutVarint64(&hostile, kHugeCount);  // span count
    WriteSeed(root, "wire_manifest_slice", "crash-huge-span-count", hostile);
  }

  {
    net::WireManifestDelta delta;
    delta.shard_index = 1;
    delta.prev_epoch = 5;
    delta.epoch = 6;
    delta.op = net::WireManifestDelta::Op::kAdd;
    delta.span = {7, 11, 4};
    WriteSeed(root, "wire_manifest_delta", "seed-add",
              net::EncodeManifestDelta(delta));
  }

  // --- layout_manifest ---
  {
    std::vector<std::vector<shard::DocSpan>> spans(2);
    spans[0] = {{1, 1, 5}, {6, 11, 3}};
    spans[1] = {{1, 6, 5}};
    shard::LayoutManifest manifest(7, cost::CostModel(), std::move(spans));
    WriteSeed(root, "layout_manifest", "seed-basic", manifest.Serialize());

    // Regressions for the allocation-before-validation bugs fixed with
    // the fuzz subsystem: tiny blobs claiming gigantic tables.
    std::string huge_shards = ManifestPreamble();
    util::PutVarint64(&huge_shards, kHugeCount);
    WriteSeed(root, "layout_manifest", "crash-huge-shard-count", huge_shards);

    std::string huge_spans = ManifestPreamble();
    util::PutVarint64(&huge_spans, 1);
    util::PutVarint64(&huge_spans, kHugeCount);
    WriteSeed(root, "layout_manifest", "crash-huge-span-count", huge_spans);

    std::string overlap = ManifestPreamble();
    util::PutVarint64(&overlap, 1);
    util::PutVarint64(&overlap, 2);
    for (uint32_t v : {1u, 1u, 5u, 3u, 10u, 5u}) {
      util::PutVarint32(&overlap, v);
    }
    WriteSeed(root, "layout_manifest", "crash-overlapping-spans", overlap);
  }

  // --- data_tree ---
  {
    doc::DataTreeBuilder builder;
    if (!builder
             .AddDocumentXml("<cd><title>Piano Concerto</title>"
                             "<composer>Rachmaninov</composer></cd>")
             .ok()) {
      return 1;
    }
    auto tree = std::move(builder).Build(cost::CostModel());
    if (!tree.ok()) return 1;
    std::string bytes;
    tree->Serialize(&bytes);
    WriteSeed(root, "data_tree", "seed-basic", bytes);

    // Regression: 2^30 claimed nodes (≈32 GB resize before the cap).
    std::string huge_nodes;
    util::PutVarint64(&huge_nodes, 0);
    util::PutVarint64(&huge_nodes, uint64_t{1} << 30);
    WriteSeed(root, "data_tree", "crash-huge-node-count", huge_nodes);
  }

  // --- database_file ---
  {
    auto db = engine::Database::BuildFromXml(
        {"<catalog><cd><title>Piano Concerto</title>"
         "<composer>Rachmaninov</composer></cd></catalog>"});
    if (!db.ok()) return 1;
    const std::string valid = db->Serialize();
    WriteSeed(root, "database_file", "seed-valid", valid);
    WriteSeed(root, "database_file", "seed-truncated",
              valid.substr(0, valid.size() / 2));
    std::string bad_crc = valid;
    bad_crc.back() = static_cast<char>(bad_crc.back() ^ 0x5a);
    WriteSeed(root, "database_file", "seed-bad-crc", bad_crc);

    // The page-0 header of the page-based store older versions saved:
    // little-endian magic "APQ2", page size, page count, freelist head.
    std::string old_format;
    for (uint32_t word : {0x41505132u, 4096u, 1u, 0u}) {
      for (int b = 0; b < 4; ++b) {
        old_format.push_back(static_cast<char>((word >> (8 * b)) & 0xff));
      }
    }
    WriteSeed(root, "database_file", "seed-old-format-header", old_format);
  }

  // --- wal_replay (config must match the fuzz target's) ---
  {
    const std::string path = (tmp / "seed.wal").string();
    auto opened = storage::WriteAheadLog::Open(path, "fuzz-config");
    if (!opened.ok()) return 1;
    for (uint32_t type : {1u, 2u, 1u}) {
      if (!opened->wal->Append(type, "record-payload").ok()) return 1;
    }
    if (!opened->wal->Sync().ok()) return 1;
    opened->wal.reset();
    const std::string valid = ReadFile(path);
    WriteSeed(root, "wal_replay", "seed-valid", valid);
    WriteSeed(root, "wal_replay", "seed-torn-tail",
              valid + "\x7f\x01garbage");
  }

  // --- xml_parser ---
  WriteSeed(root, "xml_parser", "seed-basic",
            "<cd genre=\"classical\"><title>Piano Concerto No. 2"
            "</title><price currency=\"USD\">12</price></cd>");
  WriteSeed(root, "xml_parser", "seed-mixed",
            "<?xml version=\"1.0\"?><a><!-- c --><b x=\"1\">t&amp;t"
            "<![CDATA[raw <bytes>]]></b><c/>tail &#65;</a>");
  {
    // Regression: unbounded element depth drove recursive DOM
    // destruction pre-fix; now rejected at the parser's depth cap.
    std::string deep;
    for (int i = 0; i < 100000; ++i) deep += "<a>";
    WriteSeed(root, "xml_parser", "crash-deep-nesting", deep);
  }

  // --- approxql_parser ---
  WriteSeed(root, "approxql_parser", "seed-paper",
            "cd[title and 'piano']");
  WriteSeed(root, "approxql_parser", "seed-boolean",
            "a[b or (c and \"word\") or d[e and 'two words']]");
  {
    // Regression: unbounded recursive descent pre-fix; now a clean
    // ParseError at the nesting cap.
    std::string deep;
    for (int i = 0; i < 100000; ++i) deep += "a[";
    WriteSeed(root, "approxql_parser", "crash-deep-nesting", deep);
  }

  std::error_code ec;
  fs::remove_all(tmp, ec);
  std::cout << "wrote " << g_files << " corpus files under " << root << "\n";
  return 0;
}
