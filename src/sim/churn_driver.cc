#include "sim/churn_driver.h"

#include <cmath>

#include "node/join.h"
#include "sim/trial_runner.h"

namespace sep2p::sim {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;
constexpr uint32_t kNoNode = UINT32_MAX;
// The k-table is rebuilt when the alive population drifts beyond this
// factor from the population it was built for.
constexpr double kKTableRefreshFactor = 1.25;

}  // namespace

ChurnDriver::ChurnDriver(Network* network, net::SimNetwork* transport,
                         Options options)
    : network_(network),
      transport_(transport),
      options_(options),
      rng_(MixSeed(network->params().seed, options.seed)),
      now_us_(transport_->now_us()),
      ktable_population_(network->params().n) {
  // Pool nodes were provisioned dead, but their handles are scattered
  // across [0, size) — the directory sorts by ring position, so pool
  // membership does NOT mean "handle >= n". Scan everything; ascending
  // handle order is the deterministic join queue.
  const dht::Directory& dir = network_->directory();
  for (uint32_t i = 0; i < dir.size(); ++i) {
    if (!dir.alive(i)) standby_.push_back(i);
  }
}

void ChurnDriver::Fold(Kind kind, uint32_t node, uint64_t detail) {
  auto mix = [this](uint64_t v) {
    stats_.digest ^= v;
    stats_.digest *= kFnvPrime;
  };
  mix(static_cast<uint64_t>(kind));
  mix(node);
  mix(now_us_);
  mix(detail);
}

void ChurnDriver::Run(uint64_t count) {
  const uint64_t start_us = now_us_;
  for (uint64_t i = 0; i < count; ++i) Step();
  stats_.virtual_us += now_us_ - start_us;
  stats_.final_alive = network_->directory().alive_count();
}

void ChurnDriver::Step() {
  const double total_rate = options_.join_rate_per_s +
                            options_.leave_rate_per_s +
                            options_.crash_rate_per_s;
  if (total_rate <= 0) return;

  // Exponential inter-arrival time of the superimposed process, in
  // whole microseconds (clamped to >= 1 so the clock always advances).
  const double u = rng_.NextDouble();
  const double dt_s = -std::log1p(-u) / total_rate;
  uint64_t dt_us = static_cast<uint64_t>(dt_s * 1e6);
  if (dt_us == 0) dt_us = 1;
  now_us_ += dt_us;
  transport_->SetVirtualTime(now_us_);

  ++stats_.events;
  const double pick = rng_.NextDouble() * total_rate;
  if (pick < options_.join_rate_per_s) {
    DoJoin();
  } else if (pick < options_.join_rate_per_s + options_.leave_rate_per_s) {
    DoLeave(/*crash=*/false);
  } else {
    DoLeave(/*crash=*/true);
  }
}

void ChurnDriver::DoJoin() {
  if (standby_.empty()) {
    Fold(Kind::kJoin, kNoNode, 0);
    return;
  }
  const uint32_t idx = standby_.front();
  standby_.pop_front();
  dht::Directory& dir = network_->directory();

  // First-time joiners (the pre-provisioned pool) get their certificate
  // from the CA now — issuance is part of the join, as in a real
  // deployment where a device is certified when it enters the network.
  if (!dir.has_cert(idx)) {
    Result<crypto::Certificate> cert =
        network_->ca().IssueWithSerial(dir.pub(idx), dir.serial(idx));
    if (cert.ok()) {
      dir.SetCertSignature(idx, cert->ca_signature);
      ++stats_.certs_issued;
      if (options_.metrics != nullptr) {
        options_.metrics->Inc(obs::Counter::kChurnCertsIssued);
      }
    }
  }

  dir.SetAlive(idx, true);

  uint64_t ok = 1;
  if (options_.attested_joins) {
    core::ProtocolContext ctx = network_->context();
    ctx.now = now_us_ / 1000000 + 1000;  // virtual seconds on the §3.6 clock
    node::JoinProtocol join(ctx, *transport_);
    Result<node::JoinProtocol::Outcome> outcome = join.Join(idx, rng_);
    ok = outcome.ok() ? 1 : 0;
  }
  if (ok != 0) {
    ++stats_.joins;
  } else {
    // The node stays in the network (it is reachable via Chord) but its
    // cache could not be attested — §3.6 would have it retry later.
    ++stats_.joins_rejected;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->Inc(ok != 0 ? obs::Counter::kChurnJoins
                                  : obs::Counter::kChurnJoinsRejected);
  }

  // Population drifted upward: refresh the k-table when it leaves the
  // band the current table was built for.
  const double alive = static_cast<double>(dir.alive_count());
  const double built = static_cast<double>(ktable_population_);
  if (alive > built * kKTableRefreshFactor ||
      alive < built / kKTableRefreshFactor) {
    network_->RefreshKTable(dir.alive_count());
    ktable_population_ = dir.alive_count();
    ++stats_.ktable_refreshes;
  }
  Fold(Kind::kJoin, idx, ok);
}

void ChurnDriver::DoLeave(bool crash) {
  dht::Directory& dir = network_->directory();
  // Never shrink below the Build() minimum: the substrate's protocols
  // assume at least a handful of alive nodes.
  if (dir.alive_count() <= 8) {
    Fold(crash ? Kind::kCrash : Kind::kLeave, kNoNode, 0);
    return;
  }
  const size_t k = rng_.NextUint64(dir.alive_count());
  const uint32_t idx = *dir.NthAlive(k);
  if (crash) {
    dir.MarkCrashed(idx);
    ++stats_.crashes;
  } else {
    dir.RemoveNode(idx);
    ++stats_.leaves;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->Inc(crash ? obs::Counter::kChurnCrashes
                                : obs::Counter::kChurnLeaves);
  }
  standby_.push_back(idx);  // departed nodes may rejoin later
  Fold(crash ? Kind::kCrash : Kind::kLeave, idx, 1);
}

}  // namespace sep2p::sim
