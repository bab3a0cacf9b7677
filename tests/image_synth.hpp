// The per-pixel image renderer (data/image_synth.cpp before its field
// cache), for tests only.
//
// data::make_image_datasets renders each (class, dy, dx) field once and
// draws the pixel noise through the certified Box–Muller walker. This is the
// same synthesis written pixel by pixel with one Rng::normal() call each, the
// rng drawn in the same order, so the two must agree bit for bit on every
// pixel and label. image_synth.cpp builds with -ffp-contract=off
// (tests/CMakeLists.txt), like data/image_synth.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "data/image_synth.hpp"
#include "tensor/matrix.hpp"

namespace fedbiad::reference {

struct ImageSplit {
  tensor::Matrix x;  ///< one row of height·width pixels per sample
  std::vector<std::int32_t> labels;
};

struct ImageSplits {
  ImageSplit train;
  ImageSplit test;
};

/// The train/test pair data::make_image_datasets(cfg) generates.
ImageSplits make_image_datasets(const data::ImageSynthConfig& cfg);

}  // namespace fedbiad::reference
