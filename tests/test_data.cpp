// Unit tests for the synthetic datasets and partitioners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <ostream>
#include <set>
#include <string>

#include "common/check.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "data/text_synth.hpp"
#include "image_synth.hpp"

namespace fedbiad::data {
namespace {

TEST(ImageSynth, ShapesAndLabelRanges) {
  auto cfg = ImageSynthConfig::mnist_like(1);
  cfg.train_samples = 200;
  cfg.test_samples = 50;
  const auto ds = make_image_datasets(cfg);
  EXPECT_EQ(ds.train->size(), 200u);
  EXPECT_EQ(ds.test->size(), 50u);
  EXPECT_EQ(ds.train->num_classes(), 10u);
  EXPECT_FALSE(ds.train->is_text());
  for (std::size_t i = 0; i < ds.train->size(); ++i) {
    EXPECT_GE(ds.train->label(i), 0);
    EXPECT_LT(ds.train->label(i), 10);
  }
}

TEST(ImageSynth, PixelsInUnitRange) {
  auto cfg = ImageSynthConfig::fmnist_like(2);
  cfg.train_samples = 50;
  cfg.test_samples = 10;
  const auto ds = make_image_datasets(cfg);
  std::vector<std::size_t> idx(ds.train->size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const Batch b = ds.train->make_batch(idx);
  EXPECT_EQ(b.x.rows(), 50u);
  EXPECT_EQ(b.x.cols(), 28u * 28u);
  for (float v : b.x.flat()) {
    EXPECT_GE(v, 0.0F);
    EXPECT_LE(v, 1.0F);
  }
}

TEST(ImageSynth, DeterministicForSameSeed) {
  auto cfg = ImageSynthConfig::mnist_like(7);
  cfg.train_samples = 20;
  cfg.test_samples = 5;
  const auto a = make_image_datasets(cfg);
  const auto b = make_image_datasets(cfg);
  std::vector<std::size_t> idx{0, 1, 2};
  const Batch ba = a.train->make_batch(idx);
  const Batch bb = b.train->make_batch(idx);
  for (std::size_t i = 0; i < ba.x.size(); ++i) {
    ASSERT_FLOAT_EQ(ba.x.flat()[i], bb.x.flat()[i]);
  }
  EXPECT_EQ(ba.targets, bb.targets);
}

TEST(ImageSynth, BatchMatchesLabels) {
  auto cfg = ImageSynthConfig::mnist_like(3);
  cfg.train_samples = 30;
  cfg.test_samples = 5;
  const auto ds = make_image_datasets(cfg);
  std::vector<std::size_t> idx{5, 10, 29};
  const Batch b = ds.train->make_batch(idx);
  ASSERT_EQ(b.targets.size(), 3u);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(b.targets[i], ds.train->label(idx[i]));
  }
}

TEST(ImageSynth, RejectsNegativeMaxShift) {
  auto cfg = ImageSynthConfig::mnist_like(1);
  cfg.train_samples = 4;
  cfg.test_samples = 2;
  cfg.max_shift = -1;
  EXPECT_THROW(make_image_datasets(cfg), CheckError);
  cfg.max_shift = 0;
  EXPECT_NO_THROW(make_image_datasets(cfg));
}

TEST(ImageSynth, RejectsNegativeOrNonFiniteNoise) {
  auto cfg = ImageSynthConfig::mnist_like(1);
  cfg.train_samples = 4;
  cfg.test_samples = 2;
  for (const double noise : {-0.1, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    cfg.noise = noise;
    EXPECT_THROW(make_image_datasets(cfg), CheckError) << noise;
  }
  cfg.noise = 0.0;
  EXPECT_NO_THROW(make_image_datasets(cfg));
}

TEST(ImageSynth, RejectsEmptyImagesAndBlobSets) {
  auto cfg = ImageSynthConfig::mnist_like(1);
  cfg.train_samples = 4;
  cfg.test_samples = 2;
  auto zero_height = cfg;
  zero_height.height = 0;
  EXPECT_THROW(make_image_datasets(zero_height), CheckError);
  auto zero_width = cfg;
  zero_width.width = 0;
  EXPECT_THROW(make_image_datasets(zero_width), CheckError);
  auto no_blobs = cfg;
  no_blobs.blobs_per_class = 0;
  EXPECT_THROW(make_image_datasets(no_blobs), CheckError);
}

TEST(ImageSynth, RejectsClassOverlapOutsideUnitInterval) {
  auto cfg = ImageSynthConfig::fmnist_like(2);
  cfg.train_samples = 4;
  cfg.test_samples = 2;
  for (const double overlap :
       {-0.25, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    cfg.class_overlap = overlap;
    EXPECT_THROW(make_image_datasets(cfg), CheckError) << overlap;
  }
  for (const double overlap : {0.0, 1.0}) {
    cfg.class_overlap = overlap;
    EXPECT_NO_THROW(make_image_datasets(cfg)) << overlap;
  }
}

struct ParityCase {
  std::string name;
  ImageSynthConfig cfg;
};

// Without it GTest prints the case's raw bytes, a heap address among them,
// so the ctest names would change from build to build.
void PrintTo(const ParityCase& c, std::ostream* os) { *os << c.name; }

ImageSynthConfig with(ImageSynthConfig cfg, std::size_t train,
                      std::size_t test) {
  cfg.train_samples = train;
  cfg.test_samples = test;
  return cfg;
}

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  // The MLP workloads' split.
  cases.push_back({"mnist_like", with(ImageSynthConfig::mnist_like(42),
                                      4000, 800)});
  cases.push_back({"fmnist_like", with(ImageSynthConfig::fmnist_like(2),
                                       1000, 200)});
  cases.push_back({"defaults", with(ImageSynthConfig{}, 1000, 200)});
  // Odd image sizes: see ImageSynthOddGeometryParity in test_image_synth.cpp.
  ImageSynthConfig fixed = with(ImageSynthConfig{}, 300, 60);
  fixed.height = 9;
  fixed.width = 9;
  fixed.max_shift = 0;
  cases.push_back({"max_shift_0", fixed});
  ImageSynthConfig quiet = with(ImageSynthConfig{}, 300, 60);
  quiet.noise = 0.0;
  cases.push_back({"noise_0", quiet});
  // Clamps at both ends on most pixels.
  ImageSynthConfig loud = with(ImageSynthConfig{}, 300, 60);
  loud.noise = 3.0;
  cases.push_back({"noise_3", loud});
  return cases;
}

class ImageSynthParity : public testing::TestWithParam<ParityCase> {};

void expect_split_equal(const Dataset& got, const reference::ImageSplit& want,
                        const char* split) {
  SCOPED_TRACE(split);
  ASSERT_EQ(got.size(), want.labels.size());
  std::vector<std::size_t> idx(got.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const Batch b = got.make_batch(idx);
  ASSERT_EQ(b.x.size(), want.x.size());
  EXPECT_EQ(std::memcmp(b.x.flat().data(), want.x.flat().data(),
                        b.x.size() * sizeof(float)),
            0);
  EXPECT_EQ(b.targets, want.labels);
}

TEST_P(ImageSynthParity, MatchesPerPixelRendererBitForBit) {
  const ImageSynthConfig& cfg = GetParam().cfg;
  const ImageDatasets got = make_image_datasets(cfg);
  const reference::ImageSplits want = reference::make_image_datasets(cfg);
  expect_split_equal(*got.train, want.train, "train");
  expect_split_equal(*got.test, want.test, "test");
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ImageSynthParity, testing::ValuesIn(parity_cases()),
    [](const testing::TestParamInfo<ParityCase>& info) {
      return info.param.name;
    });

TEST(TextSynth, TokensWithinVocabulary) {
  auto cfg = TextSynthConfig::ptb_like(3);
  cfg.train_sequences = 100;
  cfg.test_sequences = 20;
  const auto ds = make_text_datasets_iid(cfg, 5);
  EXPECT_TRUE(ds.train->is_text());
  EXPECT_EQ(ds.train->num_classes(), cfg.vocab);
  std::vector<std::size_t> idx(ds.train->size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const Batch b = ds.train->make_batch(idx);
  EXPECT_EQ(b.seq, cfg.seq_len);
  for (const auto t : b.tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LT(static_cast<std::size_t>(t), cfg.vocab);
  }
}

TEST(TextSynth, TargetsAreShiftedInputs) {
  auto cfg = TextSynthConfig::ptb_like(5);
  cfg.train_sequences = 10;
  cfg.test_sequences = 5;
  const auto ds = make_text_datasets_iid(cfg, 2);
  std::vector<std::size_t> idx{0};
  const Batch b = ds.train->make_batch(idx);
  // target[t] must equal token[t+1] within a sequence.
  for (std::size_t t = 0; t + 1 < cfg.seq_len; ++t) {
    EXPECT_EQ(b.targets[t], b.tokens[t + 1]);
  }
}

TEST(TextSynth, IidClientsPartitionTrainSetExactly) {
  auto cfg = TextSynthConfig::ptb_like(7);
  cfg.train_sequences = 103;
  cfg.test_sequences = 11;
  const auto ds = make_text_datasets_iid(cfg, 7);
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const auto& shard : ds.client_indices) {
    for (const auto idx : shard) {
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate index " << idx;
      ++total;
    }
  }
  EXPECT_EQ(total, 103u);
}

TEST(TextSynth, WikitextVariantIsLargerThanPtb) {
  const auto ptb = TextSynthConfig::ptb_like();
  const auto wt2 = TextSynthConfig::wikitext2_like();
  EXPECT_GT(wt2.train_sequences, 2 * ptb.train_sequences);
  EXPECT_GT(wt2.vocab, ptb.vocab);
}

TEST(TextSynth, RedditClientsHaveUnequalSizes) {
  auto cfg = TextSynthConfig::reddit_like(9);
  cfg.train_sequences = 500;
  cfg.test_sequences = 20;
  const auto ds = make_text_datasets_noniid(cfg, 10, 0.3);
  ASSERT_EQ(ds.client_indices.size(), 10u);
  std::size_t total = 0;
  for (const auto& shard : ds.client_indices) {
    EXPECT_FALSE(shard.empty());
    total += shard.size();
  }
  EXPECT_EQ(total, 500u);
  // Zipf sizing: the largest client dominates the smallest.
  EXPECT_GT(ds.client_indices.front().size(),
            2 * ds.client_indices.back().size());
}

TEST(TextSynth, RedditTopicSkewExceedsIid) {
  auto cfg = TextSynthConfig::reddit_like(11);
  cfg.train_sequences = 800;
  cfg.test_sequences = 20;
  cfg.topics = 8;
  const auto noniid = make_text_datasets_noniid(cfg, 10, 0.2);
  auto cfg_iid = cfg;
  const auto iid = make_text_datasets_iid(cfg_iid, 10);
  const double skew_noniid =
      label_skew(*noniid.train, noniid.client_indices, cfg.topics);
  const double skew_iid = label_skew(*iid.train, iid.client_indices,
                                     cfg.topics);
  EXPECT_GT(skew_noniid, skew_iid + 0.1);
}

TEST(Dataset, SampleIndicesDrawsFromShard) {
  tensor::Rng rng(13);
  std::vector<std::size_t> shard{4, 8, 15, 16, 23, 42};
  const auto picks = sample_indices(shard, 100, rng);
  EXPECT_EQ(picks.size(), 100u);
  for (const auto p : picks) {
    EXPECT_NE(std::find(shard.begin(), shard.end(), p), shard.end());
  }
}

TEST(Dataset, SampleIndicesRejectsEmptyShard) {
  tensor::Rng rng(1);
  std::vector<std::size_t> empty;
  EXPECT_THROW(sample_indices(empty, 4, rng), fedbiad::CheckError);
}

TEST(Dataset, ForEachBatchVisitsAllSamplesOnce) {
  auto cfg = ImageSynthConfig::mnist_like(17);
  cfg.train_samples = 25;
  cfg.test_samples = 10;
  const auto ds = make_image_datasets(cfg);
  std::size_t seen = 0;
  std::size_t batches = 0;
  for_each_batch(*ds.train, 8, [&](const Batch& b) {
    seen += b.batch;
    ++batches;
  });
  EXPECT_EQ(seen, 25u);
  EXPECT_EQ(batches, 4u);  // 8+8+8+1
}

class PartitionProperties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionProperties, IidIsDisjointAndComplete) {
  const std::size_t clients = GetParam();
  tensor::Rng rng(19);
  const auto part = partition_iid(101, clients, rng);
  ASSERT_EQ(part.size(), clients);
  std::set<std::size_t> seen;
  for (const auto& shard : part) {
    for (const auto idx : shard) {
      EXPECT_TRUE(seen.insert(idx).second);
    }
  }
  EXPECT_EQ(seen.size(), 101u);
}

TEST_P(PartitionProperties, IidShardSizesBalanced) {
  const std::size_t clients = GetParam();
  tensor::Rng rng(23);
  const auto part = partition_iid(1000, clients, rng);
  std::size_t mn = 1000, mx = 0;
  for (const auto& shard : part) {
    mn = std::min(mn, shard.size());
    mx = std::max(mx, shard.size());
  }
  EXPECT_LE(mx - mn, 1u);
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, PartitionProperties,
                         ::testing::Values(1, 2, 5, 10, 100));

TEST(Partition, ShardsAreMoreSkewedThanIid) {
  auto cfg = ImageSynthConfig::mnist_like(29);
  cfg.train_samples = 2000;
  cfg.test_samples = 10;
  const auto ds = make_image_datasets(cfg);
  tensor::Rng rng(31);
  const auto shards = partition_shards(*ds.train, 50, 2, rng);
  const auto iid = partition_iid(ds.train->size(), 50, rng);
  const double skew_shards = label_skew(*ds.train, shards, 10);
  const double skew_iid = label_skew(*ds.train, iid, 10);
  EXPECT_GT(skew_shards, 0.45);  // 2 shards/client → ~2 labels per client
  EXPECT_LT(skew_iid, 0.3);
}

TEST(Partition, ShardsCoverAllSamples) {
  auto cfg = ImageSynthConfig::mnist_like(37);
  cfg.train_samples = 400;
  cfg.test_samples = 10;
  const auto ds = make_image_datasets(cfg);
  tensor::Rng rng(41);
  const auto part = partition_shards(*ds.train, 20, 2, rng);
  std::set<std::size_t> seen;
  for (const auto& shard : part) {
    for (const auto idx : shard) seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 400u);
}

TEST(Partition, DirichletSkewGrowsAsAlphaShrinks) {
  auto cfg = ImageSynthConfig::mnist_like(43);
  cfg.train_samples = 2000;
  cfg.test_samples = 10;
  const auto ds = make_image_datasets(cfg);
  tensor::Rng rng(47);
  const auto tight = partition_dirichlet(*ds.train, 20, 100.0, rng);
  const auto loose = partition_dirichlet(*ds.train, 20, 0.1, rng);
  EXPECT_GT(label_skew(*ds.train, loose, 10),
            label_skew(*ds.train, tight, 10));
}

TEST(Partition, DirichletIsComplete) {
  auto cfg = ImageSynthConfig::mnist_like(53);
  cfg.train_samples = 300;
  cfg.test_samples = 10;
  const auto ds = make_image_datasets(cfg);
  tensor::Rng rng(59);
  const auto part = partition_dirichlet(*ds.train, 7, 0.5, rng);
  std::set<std::size_t> seen;
  for (const auto& shard : part) {
    for (const auto idx : shard) {
      EXPECT_TRUE(seen.insert(idx).second);
    }
  }
  EXPECT_EQ(seen.size(), 300u);
}

}  // namespace
}  // namespace fedbiad::data
