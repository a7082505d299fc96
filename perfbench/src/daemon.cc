#include "daemon.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace fcbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<int> PinToCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && static_cast<int>(cpus.size()) < count;
       --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.insert(cpus.begin(), cpu);
  }
  if (static_cast<int>(cpus.size()) < count) return {};
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu : cpus) CPU_SET(cpu, &pinned);
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) return {};
  return cpus;
}

bool ReadProcSample(pid_t pid, ProcSample* out) {
  const std::string dir = "/proc/" + std::to_string(pid);
  std::ifstream stat(dir + "/stat");
  std::string text;
  if (!std::getline(stat, text)) return false;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the line, the 12th and 13th after ')'.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  out->cpu_ms = ticks * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  // Context switches are counted per thread: sum over every task.
  out->ctx_switches = 0;
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(dir + "/task", ec)) {
    std::ifstream status(task.path() / "status");
    while (std::getline(status, text)) {
      if (text.rfind("voluntary_ctxt_switches:", 0) == 0 ||
          text.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        out->ctx_switches += std::stoll(text.substr(text.find(':') + 1));
      }
    }
  }
  return true;
}

double SelfPeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Daemon::~Daemon() { Stop(); }

bool Daemon::Start(const std::string& serve_bin, const std::string& socket_path,
                   const std::vector<std::string>& extra_args,
                   const std::string& log_path, std::string* error) {
  std::vector<std::string> args = {serve_bin, "--socket", socket_path};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      dup2(log, STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
      close(log);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  pid_ = pid;
  socket_path_ = socket_path;
  return true;
}

bool Daemon::Connect(factcheck::serve::LineClient* client, std::string* error) {
  const double give_up = NowSeconds() + 10.0;
  while (true) {
    if (client->Connect(socket_path_, error)) return true;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "factcheck_serve exited during start-up (see its log)";
      return false;
    }
    if (NowSeconds() > give_up) {
      *error = "factcheck_serve did not bind " + socket_path_ + ": " + *error;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

bool Daemon::Stop(double* peak_rss_mib) {
  if (pid_ <= 0) return false;
  kill(pid_, SIGTERM);
  int status = 0;
  rusage usage{};
  const double give_up = NowSeconds() + 10.0;
  pid_t reaped = 0;
  while ((reaped = wait4(pid_, &status, WNOHANG, &usage)) == 0) {
    if (NowSeconds() > give_up) {
      kill(pid_, SIGKILL);
      reaped = wait4(pid_, &status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  pid_ = -1;
  if (peak_rss_mib != nullptr) {
    *peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  return reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace fcbench
