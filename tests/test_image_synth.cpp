// Parity of data::make_image_datasets with the per-pixel reference renderer
// (image_synth.hpp) on odd image sizes. The common sizes are checked by
// ImageSynthParity in test_data.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "data/image_synth.hpp"
#include "image_synth.hpp"

namespace fedbiad::data {
namespace {

// The parameter holds plain integers, so the value gtest prints into each
// listed test name is the same on every run.
struct OddGeometry {
  std::size_t height;
  std::size_t width;
};

class ImageSynthOddGeometryParity
    : public testing::TestWithParam<OddGeometry> {};

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

// Odd pixel counts: the stream's cached deviate crosses sample boundaries,
// and 1×3 leaves one kernel pair per sample at most.
TEST_P(ImageSynthOddGeometryParity, MatchesPerPixelRendererBitForBit) {
  ImageSynthConfig cfg{};
  cfg.train_samples = 301;
  cfg.test_samples = 57;
  cfg.height = GetParam().height;
  cfg.width = GetParam().width;
  const ImageDatasets got = make_image_datasets(cfg);
  const reference::ImageSplits want = reference::make_image_datasets(cfg);
  expect_split_equal(*got.train, want.train, "train");
  expect_split_equal(*got.test, want.test, "test");
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ImageSynthOddGeometryParity,
    testing::Values(OddGeometry{5, 7}, OddGeometry{1, 3}),
    [](const testing::TestParamInfo<OddGeometry>& info) {
      return "h" + std::to_string(info.param.height) + "_w" +
             std::to_string(info.param.width);
    });

}  // namespace
}  // namespace fedbiad::data
