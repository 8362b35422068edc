// Benchmark binary: runs one workload and prints its result as one JSON
// line. perfbench/run.py builds this binary and passes its arguments on.
//
//   perfbench --workload pairs-1t|pairs-4t|handoff-capi --seed N
//             --seconds S --trace 0|1 --trace-dir DIR
//
// Exit codes: 0 with a result line (whose "correct" may be false); 2 on a
// bad argument; 3 if the output check's self-test misses a doctored
// history (then no result is printed: the check cannot be trusted).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ledger.hpp"
#include "workloads.hpp"

namespace pb {
const uint64_t g_process_start_ns = now_ns();
}

int main(int argc, char** argv) {
  pb::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-dir") a.trace_dir = v;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (!(a.seconds > 0 && a.seconds <= 60) || a.trace_dir.empty()) {
    std::fprintf(stderr, "perfbench: need --seconds in (0, 60] and --trace-dir\n");
    return 2;
  }

  if (const std::string missed = pb::ledger_self_test(); !missed.empty()) {
    std::fprintf(stderr, "perfbench: output check self-test failed:%s\n", missed.c_str());
    return 3;
  }

  pb::Result r;
  if (a.workload == "pairs-1t") r = pb::run_pairs(a, 1);
  else if (a.workload == "pairs-4t") r = pb::run_pairs(a, 4);
  else if (a.workload == "handoff-capi") r = pb::run_handoff(a);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  pb::print_result(r);
  return 0;
}
