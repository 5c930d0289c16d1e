// KV-service benchmark program. Runs one workload against KvService through
// its public client API from a single generator thread and prints every
// metric by name, then one JSON result object as the last line.
//
//   perfbench --workload kv-open|kv-closed|txn-bank|feed-fanout
//             --seed N --seconds S --trace 0|1
//             [--span-dir DIR] [--inject corrupt-response|broken-transfer]
//
// --trace 0 measures the end-to-end metrics with the stats counters off;
// --trace 1 is the separate traced run: spans around every client call,
// counters on, and the per-layer ladder. Exit status: 0 = checks passed,
// 1 = a correctness check failed, 2 = bad arguments, 3 = the generator and
// service threads would oversubscribe the CPUs.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--span-dir DIR] [--inject KIND]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process, so that each of setup_s's repeated
  // builds reuses the pages of the one before it. By default glibc hands
  // them back to the kernel at teardown and every build faults them in
  // again. That kernel work depends on the host's memory traffic more than
  // on the program, and it was half of txn-bank's set-up time.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--span-dir") {
      o.span_dir = v;
    } else if (k == "--inject") {
      if (v == "corrupt-response") {
        o.inject = perfbench::Inject::kCorruptResponse;
      } else if (v == "broken-transfer") {
        o.inject = perfbench::Inject::kBrokenTransfer;
      } else {
        return usage();
      }
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || o.seconds <= 0) return usage();
  moir::stats::set_counting(false);
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  perfbench::Report rep;
  int rc;
  if (o.workload == "kv-open") {
    rc = perfbench::run_kv_open(o, rep);
  } else if (o.workload == "kv-closed") {
    rc = perfbench::run_kv_closed(o, rep);
  } else if (o.workload == "txn-bank") {
    rc = perfbench::run_txn_bank(o, rep);
  } else if (o.workload == "feed-fanout") {
    rc = perfbench::run_feed_fanout(o, rep);
  } else {
    return usage();
  }
  if (rc != 0) return rc;
  rep.print();
  return rep.correct() ? 0 : 1;
}
