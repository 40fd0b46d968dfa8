#include "index/label_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "index/secondary_index.h"

namespace approxql::index {
namespace {

using doc::DataTree;
using doc::DataTreeBuilder;
using doc::NodeId;

DataTree BuildTree() {
  DataTreeBuilder builder;
  auto s = builder.AddDocumentXml(
      "<catalog>"
      "<cd><title>piano concerto</title><composer>rachmaninov</composer></cd>"
      "<cd><title>piano sonata</title></cd>"
      "</catalog>");
  EXPECT_TRUE(s.ok()) << s;
  auto tree = std::move(builder).Build(cost::CostModel());
  EXPECT_TRUE(tree.ok());
  return std::move(tree).value();
}

TEST(LabelIndexTest, BuildFromTreePostingsSortedAndComplete) {
  DataTree tree = BuildTree();
  LabelIndex index = LabelIndex::BuildFromTree(tree);

  doc::LabelId cd = tree.labels().Find("cd");
  ASSERT_NE(cd, doc::kInvalidLabel);
  const Posting* cds = index.Fetch(NodeType::kStruct, cd);
  ASSERT_NE(cds, nullptr);
  EXPECT_EQ(cds->size(), 2u);
  for (NodeId id : *cds) {
    EXPECT_EQ(tree.label(id), "cd");
    EXPECT_EQ(tree.node(id).type, NodeType::kStruct);
  }
  EXPECT_TRUE(std::is_sorted(cds->begin(), cds->end()));

  doc::LabelId piano = tree.labels().Find("piano");
  const Posting* pianos = index.Fetch(NodeType::kText, piano);
  ASSERT_NE(pianos, nullptr);
  EXPECT_EQ(pianos->size(), 2u);

  // Struct and text spaces are separate: "piano" as element name is absent.
  EXPECT_EQ(index.Fetch(NodeType::kStruct, piano), nullptr);
  // Unknown labels fetch nothing.
  EXPECT_EQ(index.Fetch(NodeType::kText, 999999), nullptr);
}

TEST(LabelIndexTest, SuperRootNotIndexed) {
  DataTree tree = BuildTree();
  LabelIndex index = LabelIndex::BuildFromTree(tree);
  doc::LabelId root_label = tree.labels().Find(doc::kSuperRootLabel);
  ASSERT_NE(root_label, doc::kInvalidLabel);
  EXPECT_EQ(index.Fetch(NodeType::kStruct, root_label), nullptr);
}

TEST(LabelIndexTest, EveryNonRootNodeIndexedExactlyOnce) {
  DataTree tree = BuildTree();
  LabelIndex index = LabelIndex::BuildFromTree(tree);
  size_t total = 0;
  for (NodeType type : {NodeType::kStruct, NodeType::kText}) {
    for (const auto& [label, posting] : index.postings(type)) {
      total += posting.size();
    }
  }
  EXPECT_EQ(total, tree.size() - 1);
}

TEST(SecondaryIndexTest, AddFetch) {
  SecondaryIndex sec;
  sec.Add(3, 7, 10);
  sec.Add(3, 7, 12);
  sec.Add(3, 8, 11);
  sec.Add(4, 7, 20);
  const Posting* p = sec.Fetch(3, 7);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, (Posting{10, 12}));
  EXPECT_EQ(sec.Fetch(3, 9), nullptr);
  EXPECT_EQ(sec.Fetch(99, 7), nullptr);
  EXPECT_EQ(sec.KeyCount(), 3u);
  ASSERT_NE(sec.Fetch(4, 7), nullptr);
  EXPECT_EQ(*sec.Fetch(4, 7), (Posting{20}));
}

}  // namespace
}  // namespace approxql::index
