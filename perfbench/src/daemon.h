// Process plumbing for the serving workloads: spawning factcheck_serve,
// connecting to it once its socket is up, stopping it (and always
// reaping it), CPU placement, and per-process CPU / context-switch
// samples.

#ifndef FCBENCH_DAEMON_H_
#define FCBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.h"

namespace fcbench {

// Monotonic clock in seconds (steady_clock).
double NowSeconds();

// Pins the calling process (and so every thread and child it creates
// afterwards) to `count` CPUs taken from the end of its allowed set, and
// returns them; empty on failure.
std::vector<int> PinToCpus(int count);

// CPU time (user + system) and context switches of one process so far.
struct ProcSample {
  double cpu_ms = 0.0;
  std::int64_t ctx_switches = 0;  // voluntary + involuntary
};
bool ReadProcSample(pid_t pid, ProcSample* out);

// Peak resident set of the calling process, in MiB.
double SelfPeakRssMiB();

// One factcheck_serve process.  The destructor stops it, so no daemon
// outlives the benchmark; the child also gets SIGKILL if the benchmark
// dies first.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns `serve_bin --socket socket_path extra_args...` with stdout and
  // stderr appended to `log_path`.
  bool Start(const std::string& serve_bin, const std::string& socket_path,
             const std::vector<std::string>& extra_args,
             const std::string& log_path, std::string* error);

  // Connects `client`, retrying until the daemon has bound its socket
  // (10 s cap; fails at once if the daemon exited).
  bool Connect(factcheck::serve::LineClient* client, std::string* error);

  // SIGTERM, then reaps the process (SIGKILL after 10 s).  `peak_rss_mib`
  // (optional) receives the process's peak resident set.  True when the
  // daemon exited 0 on the signal.
  bool Stop(double* peak_rss_mib = nullptr);

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
};

}  // namespace fcbench

#endif  // FCBENCH_DAEMON_H_
