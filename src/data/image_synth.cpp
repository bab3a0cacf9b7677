#include "data/image_synth.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <tuple>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/check.hpp"
#include "tensor/gaussian_draw.hpp"
#include "tensor/matrix.hpp"

namespace fedbiad::data {

namespace {

struct Blob {
  double cy, cx, sy, sx, amp;
};

class ImageDataset final : public Dataset {
 public:
  ImageDataset(tensor::Matrix x, std::vector<std::int32_t> labels,
               std::size_t classes)
      : x_(std::move(x)), labels_(std::move(labels)), classes_(classes) {}

  [[nodiscard]] std::size_t size() const override { return labels_.size(); }
  [[nodiscard]] std::size_t num_classes() const override { return classes_; }
  [[nodiscard]] bool is_text() const override { return false; }
  [[nodiscard]] std::int32_t label(std::size_t index) const override {
    return labels_[index];
  }

  [[nodiscard]] Batch make_batch(
      std::span<const std::size_t> indices) const override {
    Batch b;
    b.batch = indices.size();
    b.seq = 0;
    b.x.resize(indices.size(), x_.cols());
    b.targets.resize(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      FEDBIAD_DCHECK(indices[i] < size(), "sample index out of range");
      auto src = x_.row(indices[i]);
      std::copy(src.begin(), src.end(), b.x.row(i).begin());
      b.targets[i] = labels_[indices[i]];
    }
    return b;
  }

 private:
  tensor::Matrix x_;
  std::vector<std::int32_t> labels_;
  std::size_t classes_;
};

/// The noiseless image Σ_b amp·exp(−½(ry² + rx²)) of prototype blobs
/// shifted by (dy, dx): per pixel, the blobs in prototype order, the sum the
/// per-pixel renderer took before adding noise, bit for bit (this TU does
/// not contract).
std::vector<double> render_field(const std::vector<Blob>& blobs, int dy,
                                 int dx, std::size_t height,
                                 std::size_t width) {
  std::vector<double> out(height * width);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      double v = 0.0;
      for (const Blob& b : blobs) {
        const double ry = (static_cast<double>(y) - (b.cy + dy)) / b.sy;
        const double rx = (static_cast<double>(x) - (b.cx + dx)) / b.sx;
        v += b.amp * std::exp(-0.5 * (ry * ry + rx * rx));
      }
      out[y * width + x] = v;
    }
  }
  return out;
}

ImageDatasets generate(const ImageSynthConfig& cfg) {
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
  // One field per (class, dy, dx) key, rendered on its first use: at most
  // min(keys, samples) fields of dim doubles, freed on return. Rendering
  // draws nothing from the rng.
  std::map<std::tuple<std::size_t, int, int>, std::vector<double>> fields;
  std::vector<double> base(dim);
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
      const auto [it, fresh] = fields.try_emplace({c, dy, dx});
      if (fresh) {
        it->second =
            render_field(prototypes[c], dy, dx, cfg.height, cfg.width);
      }
      const std::vector<double>& field = it->second;
      for (std::size_t p = 0; p < dim; ++p) base[p] = field[p] * brightness;
      // Pixel p is float(clamp(field·brightness + noise·z, 0, 1)) with the
      // stream's next deviate z. The draw gives f = float(v) for that v, and
      // the clamp commutes with the monotone rounding: f > 0 ? min(f, 1) : +0
      // is the same float, down to the +0 of a v in [−2^-150, 0), which
      // rounds to −0 first.
      const std::span<float> row = x.row(i);
      tensor::draw_gaussian(base, cfg.noise, rng, row);
      for (float& f : row) f = f > 0.0F ? std::min(f, 1.0F) : 0.0F;
    }
    return std::make_shared<ImageDataset>(std::move(x), std::move(labels),
                                          cfg.classes);
  };

  ImageDatasets out;
  out.train = make_split(cfg.train_samples);
  out.test = make_split(cfg.test_samples);
  return out;
}

}  // namespace

ImageSynthConfig ImageSynthConfig::mnist_like(std::uint64_t seed) {
  // Calibrated so the paper's 128-unit MLP saturates near the 95% the paper
  // reports for MNIST (see "Stand-ins and scaling" in bench/README.md).
  ImageSynthConfig cfg;
  cfg.seed = seed;
  cfg.noise = 0.45;
  cfg.class_overlap = 0.0;
  cfg.max_shift = 4;
  return cfg;
}

ImageSynthConfig ImageSynthConfig::fmnist_like(std::uint64_t seed) {
  // Calibrated so the 256-unit MLP saturates near the paper's ~81-83% on
  // FMNIST: neighbouring classes share half their blobs and noise is high.
  ImageSynthConfig cfg;
  cfg.seed = seed;
  cfg.noise = 0.60;
  cfg.class_overlap = 0.5;
  cfg.blobs_per_class = 4;
  cfg.max_shift = 4;
  return cfg;
}

ImageDatasets make_image_datasets(const ImageSynthConfig& cfg) {
  FEDBIAD_CHECK(cfg.classes >= 2, "need at least two classes");
  FEDBIAD_CHECK(cfg.train_samples > 0 && cfg.test_samples > 0,
                "need non-empty splits");
  FEDBIAD_CHECK(cfg.height > 0 && cfg.width > 0, "need a non-empty image");
  FEDBIAD_CHECK(cfg.blobs_per_class > 0, "need at least one blob per class");
  FEDBIAD_CHECK(cfg.max_shift >= 0, "max_shift must be non-negative");
  FEDBIAD_CHECK(std::isfinite(cfg.noise) && cfg.noise >= 0.0,
                "noise must be finite and non-negative");
  FEDBIAD_CHECK(cfg.class_overlap >= 0.0 && cfg.class_overlap <= 1.0,
                "class_overlap must lie in [0, 1]");
  ImageDatasets out = generate(cfg);
#if defined(__GLIBC__)
  // The field cache's buffers are freed now, but glibc keeps such small
  // chunks resident in the heap: hand their pages back, so the cache does
  // not outlive set-up in the process's memory. (One large block instead
  // would be unmapped on free, but freeing it raises glibc's mmap
  // threshold, and later buffers of a few hundred KB then stay resident.)
  malloc_trim(0);
#endif
  return out;
}

}  // namespace fedbiad::data
