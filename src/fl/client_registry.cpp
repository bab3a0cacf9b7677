#include "fl/client_registry.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace fedbiad::fl {

ClientRegistry::ClientRegistry(std::size_t population,
                               netsim::HeterogeneityConfig heterogeneity,
                               netsim::LinkModel base_link,
                               tensor::Rng profile_rng)
    : population_(population),
      heterogeneity_(heterogeneity),
      base_link_(base_link),
      homogeneous_(heterogeneity.homogeneous()),
      profile_cursor_(profile_rng) {
  // Same validation gate make_profiles runs, so a bad config fails at
  // construction rather than at the first lazy lookup.
  netsim::check_heterogeneity(heterogeneity_);
  base_profile_.link = base_link_;
  base_profile_.compute_multiplier = 1.0;
  base_profile_.seconds_per_unit = heterogeneity_.seconds_per_unit;
}

netsim::ClientProfile ClientRegistry::profile(std::size_t client) {
  FEDBIAD_CHECK(client < population_, "profile index out of range");
  if (homogeneous_) {
    // draw_profile under a homogeneous config computes
    // exp(u · log 1) == 1 for every draw, so the result is exactly the
    // base profile — no stream consumption needed (the profile stream is
    // an isolated split; nothing else reads it).
    return base_profile_;
  }
  if (memo_valid_ && memo_client_ == client) return memo_profile_;
  // Extend the stride snapshots up to the requested client. Skipped
  // profiles are drawn and discarded — draw_profile's fixed three-draw
  // budget is what makes the replay exact.
  while (next_ <= client) {
    if (next_ % kProfileStride == 0) {
      stride_states_.push_back(profile_cursor_.state());
    }
    (void)netsim::draw_profile(heterogeneity_, base_link_, profile_cursor_);
    ++next_;
  }
  tensor::Rng replay;
  replay.set_state(stride_states_[client / kProfileStride]);
  for (std::size_t i = client - client % kProfileStride; i < client; ++i) {
    (void)netsim::draw_profile(heterogeneity_, base_link_, replay);
  }
  memo_client_ = client;
  memo_profile_ = netsim::draw_profile(heterogeneity_, base_link_, replay);
  memo_valid_ = true;
  return memo_profile_;
}

ClientState* ClientRegistry::acquire() {
  std::size_t slot = 0;
  if (free_.empty()) {
    slot = pool_.size();
    pool_.emplace_back();
    in_use_.push_back(true);
    slot_of_[&pool_[slot]] = slot;  // deque addresses are stable
  } else {
    slot = free_.back();
    free_.pop_back();
    in_use_[slot] = true;
  }
  ++active_;
  peak_active_ = std::max(peak_active_, active_);
  return &pool_[slot];
}

void ClientRegistry::release(ClientState* state) {
  const auto it = slot_of_.find(state);
  FEDBIAD_CHECK(it != slot_of_.end() && in_use_[it->second],
                "released a state the registry does not own");
  const std::size_t slot = it->second;
  *state = ClientState{};  // recycled leases are indistinguishable from fresh
  in_use_[slot] = false;
  free_.push_back(slot);
  --active_;
}

}  // namespace fedbiad::fl
