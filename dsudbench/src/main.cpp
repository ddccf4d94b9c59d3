// dsudbench — the repository's benchmark.
//
//   dsudbench --workload <dsudd-open|dsudd-hot-rw|paper-tcp> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <path>]
//
// --trace 0 runs the workload untraced and prints the end-to-end metrics.
// --trace 1 runs it twice for half the time each — untraced, then with the
// timing decorators of spans.hpp wired in — and prints the per-layer
// metrics plus trace.overhead_frac; the spans go to --spans-out.  The last
// stdout line is the JSON result; the exit code is 0 only when every answer
// matched the oracle.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace dsudbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spansOut;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spans-out") {
      args.spansOut = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

/// Set-ups timed per pass: the median of several keeps setup_s steady.
constexpr int kSetups = 9;

int run(const Args& args) {
  auto workload = makeWorkload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "dsudbench: unknown workload %s\n", args.workload.c_str());
    return 1;
  }
  Report result;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (!args.trace) {
    Pass pass;
    workload->pass(false, args.seconds, kSetups, pass);
    std::printf("%s seed %llu, untraced, end-to-end:\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed));
    pass.e2e.printTable();
    result = pass.e2e;
    attempted = pass.attempted;
    failed = pass.failed;
  } else {
    Pass plain;
    workload->pass(false, args.seconds / 2, 1, plain);
    Pass traced;
    workload->pass(true, args.seconds / 2, kSetups, traced);
    const SpanLog& log = SpanLog::instance();
    if (!args.spansOut.empty() && !log.write(args.spansOut)) {
      std::fprintf(stderr, "dsudbench: cannot write %s\n", args.spansOut.c_str());
    }
    std::printf("%s seed %llu, traced, per-layer:\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed));
    addLayerMetrics(result, {traced.hasServer, traced.headline, log.collect()});
    result.append(traced.direct);
    // Every workload prints the same per-layer set; absent layers read 0.
    for (const auto& [name, unit] : {std::pair{"gen.late_ms", "ms"},
                                     {"maint.update_p50_ms", "ms"},
                                     {"maint.tuples_per_update", "tuples"},
                                     {"core.tuples_to_first_answer", "tuples"}}) {
      result.ensure(name, unit);
    }
    result.add("trace.overhead_frac",
               plain.queryP50 > 0 ? (traced.queryP50 - plain.queryP50) / plain.queryP50 : 0.0,
               "ratio");
    result.printTable();
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
  }
  result.printResult(failed == 0, attempted, failed);
  return failed == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dropped client must not kill the run
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: dsudbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>]\n");
    return 1;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsudbench: %s\n", e.what());
    return 2;
  }
}
