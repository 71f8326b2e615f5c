// Tests for the declarative workload-spec parser (serving/workload_spec.h).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "serving/workload_spec.h"

namespace olympian::serving {
namespace {

WorkloadSpec WorkloadSpecParse(const std::string& text) {
  return WorkloadSpec::ParseString(text);
}

TEST(WorkloadSpecTest, ParsesFullSpec) {
  const auto spec = WorkloadSpec::ParseString(R"(
# a comment
seed 42
gpus 2
pool-threads 500
policy priority
quantum-us 1200
client inception-v4 batch=100 n=10 weight=2 priority=5
client resnet-152 batch=50 n=3 min-share=0.25 interarrival-ms=200
)");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.num_gpus, 2);
  EXPECT_EQ(spec.pool_threads, 500u);
  EXPECT_EQ(spec.policy, "priority");
  EXPECT_EQ(spec.quantum, sim::Duration::Micros(1200));
  ASSERT_EQ(spec.clients.size(), 2u);
  EXPECT_EQ(spec.clients[0].model, "inception-v4");
  EXPECT_EQ(spec.clients[0].batch, 100);
  EXPECT_EQ(spec.clients[0].num_batches, 10);
  EXPECT_EQ(spec.clients[0].weight, 2);
  EXPECT_EQ(spec.clients[0].priority, 5);
  EXPECT_DOUBLE_EQ(spec.clients[1].min_share, 0.25);
  EXPECT_EQ(spec.clients[1].mean_interarrival, sim::Duration::Millis(200));
}

TEST(WorkloadSpecTest, DefaultsApply) {
  const auto spec = WorkloadSpecParse("client vgg16 batch=10 n=1");
  EXPECT_EQ(spec.policy, "none");
  EXPECT_EQ(spec.num_gpus, 1);
  EXPECT_EQ(spec.clients[0].weight, 1);
}

TEST(WorkloadSpecTest, TrailingCommentsIgnored) {
  const auto spec =
      WorkloadSpecParse("client vgg16 batch=10 n=1  # inline comment");
  EXPECT_EQ(spec.clients[0].batch, 10);
}

TEST(WorkloadSpecTest, UnknownDirectiveRejected) {
  EXPECT_THROW(WorkloadSpecParse("quantums-us 5\nclient vgg16 n=1"),
               std::invalid_argument);
}

TEST(WorkloadSpecTest, UnknownClientAttrRejected) {
  EXPECT_THROW(WorkloadSpecParse("client vgg16 batches=10"),
               std::invalid_argument);
}

TEST(WorkloadSpecTest, MalformedAttrRejected) {
  EXPECT_THROW(WorkloadSpecParse("client vgg16 batch"),
               std::invalid_argument);
  EXPECT_THROW(WorkloadSpecParse("client vgg16 batch=abc"),
               std::invalid_argument);
}

TEST(WorkloadSpecTest, EmptySpecRejected) {
  EXPECT_THROW(WorkloadSpecParse("# nothing here"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpecParse("seed 5"), std::invalid_argument);
}

TEST(WorkloadSpecTest, BadNumbersReportLine) {
  try {
    WorkloadSpecParse("seed 1\ngpus zero\nclient vgg16 n=1");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(WorkloadSpecTest, MalformedOrOutOfRangeNumbersRejectedWithLine) {
  // Each bad line follows a valid client line, so the error must name
  // line 2. Only parsed: none of these specs is ever run.
  const std::vector<std::string> bad = {
      "client resnet-152 batch=1OO n=1",  // letter O: must not read as 1
      "client resnet-152 batch=0",
      "client resnet-152 n=-3",
      "client resnet-152 weight=-2",
      "client resnet-152 interarrival-ms=-5",
      "client resnet-152 min-share=1",
      "client resnet-152 min-share=-0.1",
      "client resnet-152 min-share=nan",
      "client resnet-152 batch=99999999999",  // overflows int
      "client resnet-152 batch=",
      "client resnet-152 interarrival-ms=9999999999999",  // ns overflow
      "pool-threads 0",
      "pool-threads -1",  // no sign on an unsigned field
      "gpus 2x",
      "gpus 0",
      "gpus 2 4",  // a directive takes no extra tokens
      "seed -1",
      "seed",
      "policy fair extra",
      "quantum-us 0",
      "quantum-us 9999999999999999",  // ns overflow
  };
  for (const std::string& line : bad) {
    try {
      WorkloadSpecParse("client vgg16 n=1\n" + line);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << line << " -> " << e.what();
    }
  }
  // The bounds themselves are accepted.
  const auto spec = WorkloadSpecParse(
      "pool-threads 1\nclient vgg16 batch=1 n=1 weight=1 priority=-4 "
      "min-share=0 interarrival-ms=0");
  EXPECT_EQ(spec.pool_threads, 1u);
  EXPECT_EQ(spec.clients[0].batch, 1);
  EXPECT_EQ(spec.clients[0].priority, -4);
  EXPECT_EQ(spec.clients[0].mean_interarrival, sim::Duration::Zero());
}

TEST(WorkloadSpecTest, ToServerOptionsCopiesFields) {
  const auto spec = WorkloadSpecParse("seed 9\ngpus 2\nclient vgg16 n=1");
  const auto opts = spec.ToServerOptions();
  EXPECT_EQ(opts.seed, 9u);
  EXPECT_EQ(opts.num_gpus, 2);
}

TEST(WorkloadSpecTest, SpecRunsEndToEnd) {
  const auto spec = WorkloadSpec::ParseString(
      "seed 3\nclient resnet-152 batch=20 n=2\nclient resnet-152 batch=20 n=2");
  Experiment exp(spec.ToServerOptions());
  const auto results = exp.Run(spec.clients);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].batches_completed, 2);
}

TEST(WorkloadSpecTest, MissingFileThrows) {
  EXPECT_THROW(WorkloadSpec::LoadFile("/does/not/exist.spec"),
               std::runtime_error);
}

}  // namespace
}  // namespace olympian::serving
