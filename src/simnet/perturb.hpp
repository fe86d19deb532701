// Seeded schedule perturbation for adversarial-order exploration.
//
// A deterministic simulation is a strength for reproducibility but a
// weakness for coverage: one seed explores exactly one message interleaving,
// and protocol bugs that need a particular race stay invisible. A
// SchedulePerturbation widens the explored space while keeping runs pure
// functions of (actors, config, seed, perturbation seed):
//
//  * shuffle_ties — simultaneous events (equal timestamps) are ordered by a
//    per-event random priority instead of insertion order, so every
//    same-time race is resolved differently per perturbation seed;
//  * extra_jitter — every message's latency gains a uniform extra delay in
//    [0, extra_jitter], creating new ties and cross-link overtakings that
//    the base network model (fixed per-link latency + small jitter) never
//    produces. Per-link delivery order is preserved (arrivals are clamped
//    to stay behind the link's last scheduled one): the fuzzer showed a
//    large extra jitter letting a finished-signal overtake the final work
//    transfer on its link, a schedule the protocols' termination argument
//    excludes. (The base latency_jitter can still swap two sends made at
//    the same instant; DESIGN.md §6.3 finding 1 covers that case.)
//
// A disabled perturbation (seed == 0, the default) leaves the engine
// byte-identical to one that never heard of this header: the tie key stays
// 0 for every event and no extra random draws happen, so event order and
// all downstream RNG streams are untouched — the conformance harness
// (src/check) asserts this.
#pragma once

#include <cstdint>

#include "simnet/time.hpp"

namespace olb::sim {

struct SchedulePerturbation {
  /// Seed of the dedicated perturbation RNG stream; 0 disables the whole
  /// feature (runs stay byte-identical to an unperturbed engine).
  std::uint64_t seed = 0;
  /// Break timestamp ties by random priority instead of insertion order.
  bool shuffle_ties = true;
  /// Uniform extra per-message latency in [0, extra_jitter] (0 = none).
  Time extra_jitter = 0;

  bool enabled() const { return seed != 0 && (shuffle_ties || extra_jitter > 0); }
};

}  // namespace olb::sim
