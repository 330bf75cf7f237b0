#include "bench.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double InputRng::normal(double mean, double sd) {
  // Box-Muller; 1 - u keeps the log argument in (0, 1].
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return mean + sd * std::sqrt(-2.0 * std::log(u1)) *
                    std::cos(6.283185307179586 * u2);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  InputRng rng(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  return rng.next();
}

CampaignDay DayPlan::next() {
  if (taken_ == 365) {
    ++year_;
    offset_ = static_cast<int>(rng_.uniform_int(0, 364));
    taken_ = 0;
  }
  const int day = (offset_ + taken_ * kStride) % 365 + 1;
  ++taken_;
  return CampaignDay{year_, day};
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// One cold set-up in a forked child, which reports its time through a pipe
/// and exits; the parent's state is untouched.
double forked_setup_s(const std::function<void()>& setup) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("set-up: pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("set-up: fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    double s = -1.0;
    try {
      const auto t0 = Clock::now();
      setup();
      s = seconds_since(t0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    }
    const bool sent = write(fds[1], &s, sizeof s) == sizeof s;
    _exit(sent && s >= 0.0 ? 0 : 1);
  }
  close(fds[1]);
  double s = -1.0;
  ssize_t got;
  do {
    got = read(fds[0], &s, sizeof s);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof s || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up failed in a child process");
  return s;
}

}  // namespace

double cold_setup_s(const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 1; i < kSetupRuns; ++i) times.push_back(forked_setup_s(setup));
  const auto t0 = Clock::now();
  setup();
  times.push_back(seconds_since(t0));
  return median(times);
}

void WorkloadResult::record_op(const std::string& problem) {
  ++attempted;
  if (problem.empty()) return;
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: op %llu failed: %s\n",
               static_cast<unsigned long long>(attempted), problem.c_str());
}

}  // namespace perfbench
