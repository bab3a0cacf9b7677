#include "baselines/unit_mask.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "wire/accounting.hpp"
#include "wire/reader.hpp"
#include "wire/writer.hpp"

namespace fedbiad::baselines {

namespace {

/// ceil(s·H), except that a product within a few ulps of an integer k is k:
/// 1 − 0.7 is 0.30000000000000004, whose product with 10 must keep 3 units,
/// not 4. Client and server both derive the mask through this function.
std::size_t surviving_units(std::size_t units, double ratio) {
  FEDBIAD_CHECK(ratio > 0.0 && ratio <= 1.0, "width ratio must be in (0,1]");
  const double x = ratio * static_cast<double>(units);
  const double k = std::round(x);
  const double slack = 4.0 * std::numeric_limits<double>::epsilon() * k;
  const double n = std::abs(x - k) <= slack ? k : std::ceil(x);
  return std::max<std::size_t>(1, static_cast<std::size_t>(n));
}

}  // namespace

void WidthPlan::build_mask(const nn::ParameterStore& store, double ratio,
                           std::span<std::uint8_t> present) const {
  FEDBIAD_CHECK(present.size() == store.size(), "mask size mismatch");
  pattern(store, ratio).mark_presence(store, present);
  for (const Rule& rule : rules_) {
    const nn::RowGroup& grp = store.group(rule.group);
    const std::size_t keep = surviving_units(rule.units, ratio);
    switch (rule.axis) {
      case Rule::Axis::kRows:
        break;  // cut through the row pattern above
      case Rule::Axis::kCols: {
        FEDBIAD_CHECK(rule.units <= grp.row_len,
                      "column rule exceeds row length of " + grp.name);
        for (std::size_t r = 0; r < grp.rows; ++r) {
          const std::size_t begin = grp.offset + r * grp.row_len;
          for (std::size_t u = keep; u < rule.units; ++u) {
            present[begin + u] = 0;
          }
        }
        break;
      }
      case Rule::Axis::kLstmWhCols: {
        const std::size_t base = 4 * (rule.in_dim + 1);
        FEDBIAD_CHECK(base + 4 * rule.hidden == grp.row_len,
                      "Wh column rule does not match row layout of " +
                          grp.name);
        for (std::size_t r = 0; r < grp.rows; ++r) {
          const std::size_t begin = grp.offset + r * grp.row_len;
          for (std::size_t gate = 0; gate < 4; ++gate) {
            for (std::size_t u = keep; u < rule.units; ++u) {
              present[begin + base + gate * rule.hidden + u] = 0;
            }
          }
        }
        break;
      }
      case Rule::Axis::kLstmWxCols: {
        FEDBIAD_CHECK(rule.units <= rule.in_dim,
                      "Wx column rule exceeds input width of " + grp.name);
        for (std::size_t r = 0; r < grp.rows; ++r) {
          const std::size_t begin = grp.offset + r * grp.row_len;
          for (std::size_t gate = 0; gate < 4; ++gate) {
            for (std::size_t u = keep; u < rule.units; ++u) {
              present[begin + gate * (rule.in_dim + 1) + u] = 0;
            }
          }
        }
        break;
      }
    }
  }
}

core::DropPattern WidthPlan::pattern(const nn::ParameterStore& store,
                                     double ratio) const {
  core::DropPattern beta(store.droppable_rows());
  for (const Rule& rule : rules_) {
    if (rule.axis != Rule::Axis::kRows) continue;
    const nn::RowGroup& grp = store.group(rule.group);
    FEDBIAD_CHECK(rule.blocks * rule.units == grp.rows,
                  "row rule does not tile group " + grp.name);
    const std::size_t keep = surviving_units(rule.units, ratio);
    for (std::size_t b = 0; b < rule.blocks; ++b) {
      for (std::size_t u = keep; u < rule.units; ++u) {
        beta.set(store.droppable_index(rule.group, b * rule.units + u), false);
      }
    }
  }
  return beta;
}

std::uint64_t WidthPlan::submodel_bytes(const nn::ParameterStore& store,
                                        double ratio) const {
  std::vector<std::uint8_t> present(store.size(), 1);
  build_mask(store, ratio, present);
  const auto kept = static_cast<std::uint64_t>(
      std::count(present.begin(), present.end(), std::uint8_t{1}));
  return wire::submodel_bytes(kept);
}

wire::Payload WidthPlan::encode_submodel(const nn::ParameterStore& store,
                                         double ratio,
                                         std::span<const float> values) const {
  FEDBIAD_CHECK(values.size() == store.size(), "values / layout mismatch");
  std::vector<std::uint8_t> present(store.size(), 1);
  build_mask(store, ratio, present);
  wire::Writer w;
  w.f64(ratio);
  std::uint64_t kept = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (present[i] == 0) continue;
    w.f32(values[i]);
    ++kept;
  }
  wire::Payload p{.kind = wire::PayloadKind::kSubModel,
                  .bytes = std::move(w).take()};
  FEDBIAD_DCHECK(p.size() == wire::submodel_bytes(kept),
                 "sub-model encoding size drifted from accounting");
  return p;
}

wire::CompactUpdate WidthPlan::decode_submodel(
    const nn::ParameterStore& layout, const wire::Payload& payload) const {
  if (payload.kind != wire::PayloadKind::kSubModel) {
    throw wire::DecodeError("expected a sub-model payload");
  }
  wire::Reader r(payload.bytes);
  const double ratio = r.f64();
  // Validate before build_mask: a corrupted ratio (including NaN) must be a
  // decode failure, not a precondition trap deeper in.
  if (!(ratio > 0.0 && ratio <= 1.0)) {
    throw wire::DecodeError("sub-model width ratio out of range");
  }
  std::vector<std::uint8_t> mask(layout.size(), 1);
  build_mask(layout, ratio, mask);
  wire::CompactUpdate u;
  u.coords = layout.size();
  u.present = wire::Bitset::from_bytemask(mask);
  u.values.resize(u.present.count());
  r.f32_run(u.values);
  r.expect_done();
  if (u.values.size() == u.coords) {
    u.form = wire::CompactUpdate::Form::kDense;
    u.present = wire::Bitset();
  } else {
    u.form = wire::CompactUpdate::Form::kBitmap;
    u.build_rank_directory();
  }
  return u;
}

WidthPlan WidthPlan::for_mlp(const nn::MlpModel& model) {
  const std::size_t hidden = model.config().hidden;
  std::vector<Rule> rules;
  rules.push_back({.group = model.fc1_group(),
                   .axis = Rule::Axis::kRows,
                   .units = hidden});
  rules.push_back({.group = model.fc2_group(),
                   .axis = Rule::Axis::kCols,
                   .units = hidden});
  return WidthPlan(std::move(rules));
}

WidthPlan WidthPlan::for_lstm_lm(const nn::LstmLmModel& model) {
  const std::size_t hidden = model.config().hidden;
  const std::size_t layers = model.config().layers;
  std::vector<Rule> rules;
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t in = l == 0 ? model.config().embed : hidden;
    rules.push_back({.group = model.unit_group(l),
                     .axis = Rule::Axis::kRows,
                     .units = hidden});
    rules.push_back({.group = model.unit_group(l),
                     .axis = Rule::Axis::kLstmWhCols,
                     .units = hidden,
                     .in_dim = in,
                     .hidden = hidden});
    if (l > 0) {
      // Deeper layers read the narrowed hidden state of the layer below.
      rules.push_back({.group = model.unit_group(l),
                       .axis = Rule::Axis::kLstmWxCols,
                       .units = hidden,
                       .in_dim = in,
                       .hidden = hidden});
    }
  }
  rules.push_back({.group = model.out_group(),
                   .axis = Rule::Axis::kCols,
                   .units = hidden});
  return WidthPlan(std::move(rules));
}

}  // namespace fedbiad::baselines
