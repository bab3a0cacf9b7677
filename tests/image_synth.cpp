#include "image_synth.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "tensor/rng.hpp"

namespace fedbiad::reference {

namespace {

struct Blob {
  double cy, cx, sy, sx, amp;
};

/// Renders one sample: prototype blobs shifted by (dy, dx) plus noise.
void render(const std::vector<Blob>& blobs, int dy, int dx, double brightness,
            double noise, tensor::Rng& rng, std::span<float> out,
            std::size_t height, std::size_t width) {
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      double v = 0.0;
      for (const Blob& b : blobs) {
        const double ry = (static_cast<double>(y) - (b.cy + dy)) / b.sy;
        const double rx = (static_cast<double>(x) - (b.cx + dx)) / b.sx;
        v += b.amp * std::exp(-0.5 * (ry * ry + rx * rx));
      }
      v = v * brightness + noise * rng.normal();
      out[y * width + x] = static_cast<float>(std::clamp(v, 0.0, 1.0));
    }
  }
}

}  // namespace

ImageSplits make_image_datasets(const data::ImageSynthConfig& cfg) {
  tensor::Rng rng(cfg.seed);
  // Per-class blob prototypes; with class_overlap > 0 a prefix of each
  // class's blobs is borrowed from the previous class, making neighbours
  // confusable (the FMNIST-like difficulty knob).
  std::vector<std::vector<Blob>> prototypes(cfg.classes);
  for (std::size_t c = 0; c < cfg.classes; ++c) {
    auto& blobs = prototypes[c];
    const auto shared =
        static_cast<std::size_t>(cfg.class_overlap * cfg.blobs_per_class);
    if (c > 0) {
      const auto& prev = prototypes[c - 1];
      blobs.insert(blobs.end(), prev.begin(),
                   prev.begin() + std::min(shared, prev.size()));
    }
    while (blobs.size() < cfg.blobs_per_class) {
      Blob b;
      b.cy = rng.uniform(4.0, cfg.height - 4.0);
      b.cx = rng.uniform(4.0, cfg.width - 4.0);
      b.sy = rng.uniform(1.5, 4.0);
      b.sx = rng.uniform(1.5, 4.0);
      b.amp = rng.uniform(0.5, 1.0);
      blobs.push_back(b);
    }
  }

  const std::size_t dim = cfg.height * cfg.width;
  auto make_split = [&](std::size_t n) {
    tensor::Matrix x(n, dim);
    std::vector<std::int32_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(rng.uniform_index(cfg.classes));
      labels[i] = static_cast<std::int32_t>(c);
      const int dy = static_cast<int>(rng.uniform_index(2 * cfg.max_shift + 1)) -
                     cfg.max_shift;
      const int dx = static_cast<int>(rng.uniform_index(2 * cfg.max_shift + 1)) -
                     cfg.max_shift;
      const double brightness = rng.uniform(0.8, 1.2);
      render(prototypes[c], dy, dx, brightness, cfg.noise, rng, x.row(i),
             cfg.height, cfg.width);
    }
    return ImageSplit{std::move(x), std::move(labels)};
  };

  ImageSplits out;
  out.train = make_split(cfg.train_samples);
  out.test = make_split(cfg.test_samples);
  return out;
}

}  // namespace fedbiad::reference
