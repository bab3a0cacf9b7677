// The dense aggregation oracle (paper eq. 10), for tests only.
//
// The server commits through the fused committer (fl/fused_aggregate.hpp),
// which streams compact decodes into accumulator panels. This is the same
// rule written coordinate by coordinate over the wide decode
// (fl::decode_outcome's `values` / `present`): per coordinate, the double
// products and adds land in client order with the same operands, so the two
// must agree bit for bit. aggregate.cpp builds with -ffp-contract=off for
// that reason (tests/CMakeLists.txt), like fl/fused_aggregate.cpp.
#pragma once

#include <span>

#include "fl/strategy.hpp"

namespace fedbiad::reference {

/// Combines client outcomes into the global parameter vector in place.
///
/// Parameter-type outcomes (is_update == false) replace coordinates; update-
/// type outcomes add a weighted-average delta. All outcomes in one call must
/// agree on is_update. Weighting follows eq. 10: client k contributes with
/// weight |D_k|.
///
/// kMaskedAverage implements eq. 10 literally (dropped coordinates count as
/// zeros); kPerCoordinateNormalized averages every coordinate over the
/// clients that transmitted it and keeps the previous global value where no
/// client did (the `AggregationRule` bullet of docs/ARCHITECTURE.md says why
/// this is the default).
void aggregate(std::span<float> global_params,
               std::span<const fl::ClientOutcome> outcomes,
               fl::AggregationRule rule);

}  // namespace fedbiad::reference
