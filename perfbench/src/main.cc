// fcbench: runs one benchmark workload and prints its report, then one
// JSON result line.  perfbench/run.py builds it and passes --serve-bin.
//
//   fcbench --workload advise_warm|clean_replan|claims_cold --seed N
//           --seconds S --trace 0|1 --serve-bin PATH [--run-dir DIR]
//
// Exit status 0 when every correctness check passed; 1 on a mismatch (the
// result line still prints, with "correct":false) or when the run could
// not complete (no result line); 2 on bad arguments.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "daemon.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "fcbench: %s\nusage: fcbench --workload advise_warm|clean_replan|"
               "claims_cold --seed N --seconds S --trace 0|1 --serve-bin PATH "
               "[--run-dir DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fcbench::RunOptions options;
  std::string run_root = ".bench_run";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("--seed needs an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return Usage("--seconds needs a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace needs 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else if (arg == "--serve-bin") {
      options.serve_bin = value;
    } else if (arg == "--run-dir") {
      run_root = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : fcbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown or missing --workload");
  if (trace < 0) return Usage("--trace is required");
  if (options.serve_bin.empty()) return Usage("--serve-bin is required");
  options.trace = trace == 1;

  // Placement: as many CPUs as the workload has connections, taken from
  // the allowed set before any thread or daemon exists, so every thread
  // and the daemon inherit the set.
  const std::vector<int> cpus =
      fcbench::PinToCpus(fcbench::WorkloadConnections(options.workload));
  std::string cpu_list;
  for (int cpu : cpus) cpu_list += (cpu_list.empty() ? "" : ",") + std::to_string(cpu);
  std::printf("fcbench workload=%s seed=%llu seconds=%g trace=%d cpus=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              trace, cpus.empty() ? "unpinned" : cpu_list.c_str());

  // Sockets, changelogs and the trace live in a per-process directory
  // under the checkout; only the trace is kept.
  std::error_code ec;
  std::filesystem::create_directories(run_root, ec);
  options.run_dir = run_root + "/" + options.workload + "-" + std::to_string(getpid());
  std::filesystem::remove_all(options.run_dir, ec);
  if (!std::filesystem::create_directories(options.run_dir, ec)) {
    std::fprintf(stderr, "fcbench: cannot create %s\n", options.run_dir.c_str());
    return 1;
  }

  fcbench::RunResult result = fcbench::RunWorkload(options);
  if (options.trace) {
    std::filesystem::rename(options.run_dir + "/trace.jsonl",
                            run_root + "/trace-" + options.workload + "-" +
                                std::to_string(options.seed) + ".jsonl",
                            ec);
  }
  std::filesystem::remove_all(options.run_dir, ec);

  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  if (!result.error.empty()) {
    std::fprintf(stderr, "fcbench: %s\n", result.error.c_str());
    return 1;
  }
  for (const std::string& note : result.mismatch_notes) {
    std::printf("MISMATCH: %s\n", note.c_str());
  }
  std::printf("end-to-end metrics (untraced%s):\n",
              options.trace ? " half of this traced run" : " run");
  for (const fcbench::Metric& m : result.end_to_end) {
    std::printf("  %-14s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::vector<fcbench::Metric>& metrics =
      options.trace ? result.per_layer : result.end_to_end;
  std::string json = "{\"correct\":" + std::string(result.correct() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted()) +
                     ",\"failed\":" + std::to_string(result.failed()) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i > 0 ? "," : "") + std::string("\"") + metrics[i].name +
            "\":{\"value\":" + value + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct() ? 0 : 1;
}
