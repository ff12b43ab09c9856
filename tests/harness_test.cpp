// Harness utility tests: table formatting/CSV and result plumbing.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "harness/table.hpp"

namespace nicwarp::harness {
namespace {

TEST(TableTest, AlignedOutputContainsEverything) {
  Table t("Demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"a-much-longer-name", "23456"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== Demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(s.find("23456"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|--"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t("Demo");
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n3,4\n");
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(-7)), "-7");
  EXPECT_EQ(Table::pct(12.345, 1), "12.3%");
}

TEST(TableTest, RaggedRowsDoNotCrash) {
  Table t("Ragged");
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  t.add_row({"1", "2", "3", "4"});  // extra cell widens the table
  const std::string s = t.to_string();
  EXPECT_NE(s.find('4'), std::string::npos);
}

TEST(ResultTest, ToStringIsInformative) {
  ExperimentResult r;
  r.sim_seconds = 1.5;
  r.committed_events = 42;
  r.completed = true;
  const std::string s = r.to_string();
  EXPECT_NE(s.find("sim_seconds=1.5"), std::string::npos);
  EXPECT_NE(s.find("committed=42"), std::string::npos);
  EXPECT_NE(s.find("completed=1"), std::string::npos);
}

TEST(ConfigTest, DefaultsMatchThePaperTestbed) {
  ExperimentConfig cfg;
  EXPECT_EQ(cfg.nodes, 8u);  // the paper's 8-node cluster
  EXPECT_EQ(cfg.rollback_scope, warped::RollbackScope::kLp);
  EXPECT_TRUE(cfg.credit_repair);
  EXPECT_TRUE(cfg.piggyback);
  // Cost model: LANai4-era NIC is the bottleneck.
  EXPECT_GT(cfg.cost.nic_per_packet_us, 5.0);
}

TEST(BuildTestbedTest, WiringIsComplete) {
  ExperimentConfig cfg;
  cfg.model = ModelKind::kPhold;
  cfg.phold.objects = 8;
  cfg.nodes = 4;
  Testbed tb = build_testbed(cfg);
  ASSERT_EQ(tb.kernels.size(), 4u);
  ASSERT_EQ(tb.comms.size(), 4u);
  EXPECT_EQ(tb.cluster->size(), 4u);
  // Objects distributed round-robin.
  std::size_t total = 0;
  for (const auto& k : tb.kernels) total += k->lp().object_ids().size();
  EXPECT_EQ(total, 8u);
  EXPECT_FALSE(tb.all_stopped());
}

}  // namespace
}  // namespace nicwarp::harness
