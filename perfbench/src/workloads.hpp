// The workloads and the layer ladder (README.md says why each exists).
#pragma once

#include "util.hpp"

namespace pb {

/// pairs-1t (threads = 1) and pairs-4t (threads = 4): every thread runs
/// enqueue→dequeue pairs on one WFQueue<uint64_t> with default config.
Result run_pairs(const Args& a, unsigned threads);

/// handoff-capi: one paced producer (wfq_enqueue) and one waiting consumer
/// (wfq_dequeue_wait) on a default C API queue; wfq_close and a drain end it.
Result run_handoff(const Args& a);

/// Spans recorded around C API calls: the capi.* per-layer metrics.
struct CapiSpans {
  Hist enqueue;
  Hist dequeue_wait;
};

/// The single-thread ladder: the same seeded pair loop through each public
/// surface (ladder.*.pair_ns) and the two reference queues
/// (ref.*.pair_ns). Fills `capi` from one traced repetition of the C API
/// rung. Adds an error to `r` if any surface returns a wrong value.
void run_ladder(Result& r, uint64_t seed, CapiSpans& capi);

/// The reference queues under the pairs-4t loop: ref.*.mops_4t.
void run_refs_4t(Result& r);

}  // namespace pb
