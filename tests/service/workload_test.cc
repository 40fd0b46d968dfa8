#include "service/workload.h"

#include <gtest/gtest.h>

#include <string>

namespace approxql::service {
namespace {

TEST(WorkloadTest, ParsesQueriesSkippingBlanksAndComments) {
  const char kText[] =
      "# serve workload\n"
      "\n"
      "cd[title]\n"
      "   \t \n"
      "  cd[composer[\"bach\"]]  \n"
      "# trailing comment\n";
  Workload workload = ScanWorkload(kText);
  EXPECT_TRUE(workload.errors.empty());
  ASSERT_EQ(workload.queries.size(), 2u);
  EXPECT_EQ(workload.queries[0], "cd[title]");
  EXPECT_EQ(workload.queries[1], "cd[composer[\"bach\"]]");
}

TEST(WorkloadTest, ScanReportsEveryBadLineWithItsNumber) {
  const char kText[] =
      "cd[title]\n"     // line 1: ok
      "cd[oops\n"       // line 2: unbalanced
      "# comment\n"     // line 3: skipped
      "]]]broken\n"     // line 4: garbage
      "cd[composer]\n"  // line 5: ok
      "\n";
  Workload workload = ScanWorkload(kText);
  EXPECT_EQ(workload.queries.size(), 2u);
  ASSERT_EQ(workload.errors.size(), 2u);
  EXPECT_EQ(workload.errors[0].line, 2u);
  EXPECT_EQ(workload.errors[0].text, "cd[oops");
  EXPECT_FALSE(workload.errors[0].status.ok());
  EXPECT_EQ(workload.errors[1].line, 4u);
  EXPECT_EQ(workload.errors[1].text, "]]]broken");
  // ToString is what the drivers print: line, text, and the parse error.
  std::string printed = workload.errors[0].ToString();
  EXPECT_NE(printed.find("line 2"), std::string::npos);
  EXPECT_NE(printed.find("cd[oops"), std::string::npos);
}

TEST(WorkloadTest, StrictParseFailsOnFirstBadLineAndCountsTheRest) {
  auto parsed = ParseWorkload("cd[a\ncd[b\ncd[c\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("+2 more bad lines"),
            std::string::npos);
}

TEST(WorkloadTest, StrictParseSingleBadLineHasNoMoreSuffix) {
  auto parsed = ParseWorkload("cd[title]\ncd[oops\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message().find("more bad lines"),
            std::string::npos);
}

TEST(WorkloadTest, EmptyWorkloadIsInvalid) {
  auto parsed = ParseWorkload("# only comments\n\n   \n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(WorkloadTest, MissingFileIsNotFound) {
  auto parsed = LoadWorkloadFile("/nonexistent/workload.txt");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kNotFound);
  EXPECT_NE(parsed.status().message().find("/nonexistent/workload.txt"),
            std::string::npos);
}

TEST(WorkloadTest, LastLineWithoutNewlineIsParsed) {
  Workload workload = ScanWorkload("cd[title]");
  EXPECT_TRUE(workload.errors.empty());
  ASSERT_EQ(workload.queries.size(), 1u);
  EXPECT_EQ(workload.queries[0], "cd[title]");
}

}  // namespace
}  // namespace approxql::service
