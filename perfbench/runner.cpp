//===--- runner.cpp - Child spawner and calibration kernel for perfbench --===//
//
// Part of the spa project (see src/support/IdTypes.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's spawner. run.py starts it once and sends it one
/// request per line on stdin; it answers each with one line on stdout:
///
///   calib                   -> SECONDS
///       Runs the fixed calibration kernel once and reports its wall time.
///   run<TAB>ARGV0<TAB>...   -> WALL_SECONDS EXIT MAXRSS_KB
///       Forks, runs ARGV with stdout and stderr discarded, waits with
///       wait4, and reports the wall time from fork to reaped exit, the
///       exit code (-N for signal N) and the child's ru_maxrss.
///
/// Why a separate process: Linux charges the address space a process had
/// before execve to its ru_maxrss, so a child forked from the Python
/// benchmark reports at least the interpreter's footprint (about 20 MB, more
/// than a whole corpus analysis). Forked from this small process, the
/// child's ru_maxrss is its own. It depends on nothing in src/: a change
/// to the analysis never changes the spawner or the kernel.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

using Clock = std::chrono::steady_clock;

/// The calibration kernel: node-based map inserts, then a sort — the
/// pointer-chasing, allocation-heavy kind of work the analysis does, so
/// its run time tracks the host's speed for that work. Fixed forever.
uint64_t calibrationKernel() {
  std::map<uint64_t, uint64_t> Map;
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (unsigned I = 0; I < 40000; ++I) {
    X ^= X >> 12;
    X ^= X << 25;
    X ^= X >> 27;
    Map[(X * 0x2545F4914F6CDD1Dull) >> 40] += I;
  }
  std::vector<uint64_t> Keys;
  Keys.reserve(Map.size());
  for (const auto &[Key, Value] : Map)
    Keys.push_back(Key ^ Value);
  std::sort(Keys.begin(), Keys.end());
  uint64_t Sum = 0;
  for (uint64_t K : Keys)
    Sum = Sum * 31 + K;
  return Sum;
}

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Set by the kernel so the compiler cannot drop it.
volatile uint64_t KernelSink = 0;

void calibrate() {
  Clock::time_point Start = Clock::now();
  KernelSink = calibrationKernel();
  std::printf("%.9f\n", secondsSince(Start));
}

void run(std::vector<std::string> &Args) {
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  Clock::time_point Start = Clock::now();
  pid_t Pid = fork();
  if (Pid == 0) {
    int Null = open("/dev/null", O_WRONLY);
    dup2(Null, 1);
    dup2(Null, 2);
    execv(Argv[0], Argv.data());
    _exit(127);
  }
  int Status = 0;
  struct rusage Usage = {};
  if (Pid < 0 || wait4(Pid, &Status, 0, &Usage) != Pid) {
    std::printf("0 -255 0\n");
    return;
  }
  double Wall = secondsSince(Start);
  int Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : -WTERMSIG(Status);
  std::printf("%.9f %d %ld\n", Wall, Code, Usage.ru_maxrss);
}

} // namespace

int main() {
  std::string Line;
  while (std::getline(std::cin, Line)) {
    std::vector<std::string> Fields;
    size_t Pos = 0;
    while (true) {
      size_t Tab = Line.find('\t', Pos);
      Fields.push_back(Line.substr(Pos, Tab - Pos));
      if (Tab == std::string::npos)
        break;
      Pos = Tab + 1;
    }
    if (Fields[0] == "calib" && Fields.size() == 1) {
      calibrate();
    } else if (Fields[0] == "run" && Fields.size() > 1) {
      Fields.erase(Fields.begin());
      run(Fields);
    } else {
      std::printf("error\n");
    }
    std::fflush(stdout);
  }
  return 0;
}
