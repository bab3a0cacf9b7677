#include "fl/strategy.hpp"

#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "wire/reader.hpp"

namespace fedbiad::fl {

wire::CompactUpdate Strategy::decode_payload_compact(
    const nn::ParameterStore& layout, const wire::Payload& payload) const {
  return wire::decode_update_compact(layout, payload);
}

wire::Decoded Strategy::decode_payload(const nn::ParameterStore& layout,
                                       const wire::Payload& payload) const {
  return wire::expand(decode_payload_compact(layout, payload));
}

std::vector<std::uint8_t> Strategy::save_state() const { return {}; }

void Strategy::load_state(std::span<const std::uint8_t> bytes) {
  FEDBIAD_CHECK(bytes.empty(),
                "strategy " + name() + " is stateless but was handed a " +
                    std::to_string(bytes.size()) + "-byte state blob");
}

namespace {

// Decoding is a receive step, not a query: it charges the payload's bytes
// to uplink_bytes exactly once. The engines drop the raw payload right
// after decoding (and count abandoned uploads only in the wasted-bytes
// ledger, never here), so a second decode of the same outcome — through
// either view — would silently re-charge, or post-drop zero, the measured
// traffic.
void check_undecoded(const ClientOutcome& out) {
  FEDBIAD_CHECK(out.values.empty() && out.present.size() == 0 &&
                    out.compact.empty(),
                "outcome already decoded — uplink bytes would double-count");
}

}  // namespace

void decode_outcome(const Strategy& strategy, const nn::ParameterStore& layout,
                    ClientOutcome& out) {
  check_undecoded(out);
  wire::Decoded decoded = strategy.decode_payload(layout, out.payload);
  FEDBIAD_CHECK(decoded.values.size() == layout.size() &&
                    decoded.present.size() == layout.size(),
                "decoded update does not match the model layout");
  out.values = std::move(decoded.values);
  out.present = std::move(decoded.present);
  out.uplink_bytes = out.payload.size();
}

void decode_outcome_compact(const Strategy& strategy,
                            const nn::ParameterStore& layout,
                            ClientOutcome& out) {
  check_undecoded(out);
  wire::CompactUpdate compact = strategy.decode_payload_compact(layout,
                                                                out.payload);
  FEDBIAD_CHECK(compact.size() == layout.size() && !compact.empty(),
                "decoded update does not match the model layout");
  out.compact = std::move(compact);
  out.uplink_bytes = out.payload.size();
}

DecodeStatus try_decode_outcome_compact(const Strategy& strategy,
                                        const nn::ParameterStore& layout,
                                        ClientOutcome& out, bool framed,
                                        const DecodeContext& ctx) {
  // The double-decode guard stays outside the try: it is a programming
  // error, not client noise.
  check_undecoded(out);
  const std::uint64_t wire_size = out.payload.size();
  auto wrap = [&ctx](const char* what) {
    std::ostringstream os;
    os << "upload from client " << ctx.client_id << " (dispatch "
       << ctx.dispatch_seq << ", t=" << ctx.clock << "s) rejected: " << what;
    return DecodeStatus{false, os.str()};
  };
  try {
    // strip_seal mutates the payload only after the trailer verifies, and a
    // later section-decoder failure discards the payload anyway, so the
    // in-place strip never leaves a half-consumed frame in play.
    if (framed) wire::strip_seal(out.payload);
    decode_outcome_compact(strategy, layout, out);
    out.uplink_bytes = wire_size;
    return {};
  } catch (const wire::DecodeError& e) {
    return wrap(e.what());
  } catch (const CheckError& e) {
    return wrap(e.what());
  }
}

}  // namespace fedbiad::fl
