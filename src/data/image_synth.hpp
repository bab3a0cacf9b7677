// Synthetic image classification datasets.
//
// Stand-ins for MNIST and Fashion-MNIST (see bench/README.md): each class has a
// prototype built from random Gaussian blobs on the pixel grid; samples are
// the prototype under random translation, brightness jitter, and pixel
// noise. The "fashion" variant shares blobs between neighbouring classes and
// adds more noise, so — like FMNIST vs MNIST — it saturates at a visibly
// lower accuracy under the same model.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace fedbiad::data {

struct ImageSynthConfig {
  std::size_t classes = 10;
  std::size_t height = 28;
  std::size_t width = 28;
  std::size_t train_samples = 6000;
  std::size_t test_samples = 1000;
  std::size_t blobs_per_class = 4;
  double noise = 0.20;          ///< pixel Gaussian noise stddev
  int max_shift = 2;            ///< uniform translation in pixels
  double class_overlap = 0.0;   ///< fraction of blobs shared with next class
  std::uint64_t seed = 1;

  /// MNIST-like defaults (easier task).
  static ImageSynthConfig mnist_like(std::uint64_t seed = 1);
  /// FMNIST-like: overlapping prototypes and more noise (harder task).
  static ImageSynthConfig fmnist_like(std::uint64_t seed = 2);
};

struct ImageDatasets {
  DatasetPtr train;
  DatasetPtr test;
};

/// Generates a train/test pair sharing the same class prototypes.
ImageDatasets make_image_datasets(const ImageSynthConfig& cfg);

}  // namespace fedbiad::data
